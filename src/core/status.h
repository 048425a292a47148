#ifndef LLL_CORE_STATUS_H_
#define LLL_CORE_STATUS_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace lll {

// Error categories used across the library. These are deliberately coarse:
// the interesting error payload lives in the message and the GenTrouble-style
// context frames (see Status::AddContext), which reproduce the role of the
// paper's Java `GenTrouble` exception -- an error object that carries the
// inputs that went into causing the error.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,   // caller handed us something malformed
  kNotFound,          // a name/node/child that should exist does not
  kOutOfRange,        // index past the end of a sequence
  kParseError,        // XML / XQuery / AWB-QL / template syntax error
  kTypeError,         // XDM dynamic type error (err:XPTY****)
  kCardinalityError,  // wrong number of items (e.g. two SystemBeingDesigned)
  kConstructionError, // XML construction error (e.g. err:XQTY0024)
  kUnsupported,       // feature outside the implemented subset
  kInternal,          // invariant violation inside the library
  kResourceExhausted, // budget/quota/deadline exceeded (server admission,
                      // evaluation step budgets, cancellation) -- a graceful
                      // "come back later", not a bug
};

// Human-readable name of a status code ("OK", "ParseError", ...).
const char* StatusCodeName(StatusCode code);

// Status is the library-wide error-reporting type (Google style: no
// exceptions). An OK status is one null pointer: building, moving and
// destroying one allocates nothing and touches no string, which matters
// because every evaluation step returns one inside its Result. An error
// owns its code, message and stack of context frames behind that pointer;
// copying an error deep-copies it, moving it moves the pointer.
//
// The context stack is the "GenTrouble" mechanism from the paper: each layer
// of the document generator that propagates an error may append one line of
// context ("while expanding <for> at template node t17, focus = N12321"), so
// the final report reads like a little backtrace through the *data*, not just
// the code.
class Status {
 public:
  // OK status.
  Status() = default;
  Status(StatusCode code, std::string message)
      : rep_(new Rep{code, std::move(message), {}}) {}

  Status(const Status& other)
      : rep_(other.rep_ == nullptr ? nullptr : new Rep(*other.rep_)) {}
  Status& operator=(const Status& other) {
    if (this != &other) *this = Status(other);
    return *this;
  }
  Status(Status&&) noexcept = default;
  Status& operator=(Status&&) noexcept = default;

  static Status Ok() { return Status(); }
  static Status Invalid(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status ParseError(std::string msg) {
    return Status(StatusCode::kParseError, std::move(msg));
  }
  static Status TypeError(std::string msg) {
    return Status(StatusCode::kTypeError, std::move(msg));
  }
  static Status CardinalityError(std::string msg) {
    return Status(StatusCode::kCardinalityError, std::move(msg));
  }
  static Status ConstructionError(std::string msg) {
    return Status(StatusCode::kConstructionError, std::move(msg));
  }
  static Status Unsupported(std::string msg) {
    return Status(StatusCode::kUnsupported, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }

  bool ok() const { return code() == StatusCode::kOk; }
  StatusCode code() const {
    return rep_ == nullptr ? StatusCode::kOk : rep_->code;
  }
  // Empty for an OK status.
  const std::string& message() const;
  const std::vector<std::string>& context() const;

  // Appends one GenTrouble context frame (outermost frame last). Returns
  // *this so propagation sites can write:
  //   return st.AddContext("while expanding <for> over all.user");
  // An OK status keeps its frames too, and stays OK.
  Status& AddContext(std::string frame);

  // Full report: "TypeError: <msg>\n  while ...\n  while ...".
  std::string ToString() const;

 private:
  struct Rep {
    StatusCode code;
    std::string message;
    std::vector<std::string> context;
  };
  std::unique_ptr<Rep> rep_;
};

// Propagates a non-OK status out of the current function.
#define LLL_RETURN_IF_ERROR(expr)                \
  do {                                           \
    ::lll::Status lll_status__ = (expr);         \
    if (!lll_status__.ok()) return lll_status__; \
  } while (false)

}  // namespace lll

#endif  // LLL_CORE_STATUS_H_
