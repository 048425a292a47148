#ifndef LLL_CORE_RESULT_H_
#define LLL_CORE_RESULT_H_

#include <optional>
#include <utility>

#include "core/status.h"

namespace lll {

// Result<T> is either a value or an error Status -- the return type that
// makes the "Java exceptions" arm of the paper's comparison expressible in
// exception-free C++: a failing utility deep in the call stack produces an
// error once, every intermediate caller forwards it with LLL_ASSIGN_OR_RETURN
// (one line per call site), and only the top level inspects it.
template <typename T>
class Result {
 public:
  // Intentionally implicit so call sites can `return value;` / `return status;`
  // exactly the way a throwing language returns or throws.
  Result(T value) : value_(std::move(value)) {}            // NOLINT
  Result(Status status) : status_(std::move(status)) {}    // NOLINT
  Result(StatusCode code, std::string message)
      : status_(code, std::move(message)) {}

  bool ok() const { return status_.ok(); }
  const Status& status() const& { return status_; }
  Status& status() & { return status_; }
  // Lets LLL_ASSIGN_OR_RETURN move an error out instead of copying it.
  Status&& status() && { return std::move(status_); }

  const T& value() const& { return *value_; }
  T& value() & { return *value_; }
  T&& value() && { return std::move(*value_); }

  const T& operator*() const& { return *value_; }
  T& operator*() & { return *value_; }
  const T* operator->() const { return &*value_; }
  T* operator->() { return &*value_; }

  // Value if OK, `fallback` otherwise.
  T value_or(T fallback) const {
    return ok() ? *value_ : std::move(fallback);
  }

 private:
  Status status_;
  std::optional<T> value_;
};

// LLL_ASSIGN_OR_RETURN(lhs, expr): evaluates `expr` (a Result<T>); on error
// returns the Status from the current function, otherwise move-assigns the
// value into `lhs`. `lhs` may be a declaration ("auto x") or an existing
// variable.
#define LLL_CONCAT_INNER_(a, b) a##b
#define LLL_CONCAT_(a, b) LLL_CONCAT_INNER_(a, b)
#define LLL_ASSIGN_OR_RETURN(lhs, expr)                      \
  auto LLL_CONCAT_(lll_result__, __LINE__) = (expr);         \
  if (!LLL_CONCAT_(lll_result__, __LINE__).ok())             \
    return std::move(LLL_CONCAT_(lll_result__, __LINE__))    \
        .status();                                           \
  lhs = std::move(LLL_CONCAT_(lll_result__, __LINE__)).value()

}  // namespace lll

#endif  // LLL_CORE_RESULT_H_
