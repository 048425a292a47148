#ifndef LLL_XDM_SEQUENCE_H_
#define LLL_XDM_SEQUENCE_H_

#include <vector>

#include "xdm/item.h"

namespace lll::xdm {

// The XDM sequence. Sequences are FLAT by construction: a Sequence holds
// Items and an Item can never be a Sequence, so (1,(2,3),()) is physically
// (1,2,3) -- "with all of the internal sequence structure washed out", as the
// paper puts it. Every pathology in the paper's Table (experiment E1) follows
// from this one representation decision, which is why it is enforced by the
// type system here rather than by a normalization pass.
//
// There is likewise no distinction between an item and a singleton sequence.
class Sequence {
 public:
  Sequence() = default;
  explicit Sequence(Item item) { items_.push_back(std::move(item)); }
  explicit Sequence(std::vector<Item> items) : items_(std::move(items)) {}

  // A copy is never fresh (see fresh()); a move keeps the bit.
  Sequence(const Sequence& other)
      : items_(other.items_), ordered_deduped_(other.ordered_deduped_) {}
  Sequence& operator=(const Sequence& other) {
    items_ = other.items_;
    ordered_deduped_ = other.ordered_deduped_;
    fresh_ = false;
    return *this;
  }
  Sequence(Sequence&&) noexcept = default;
  Sequence& operator=(Sequence&&) noexcept = default;

  static Sequence Empty() { return Sequence(); }
  static Sequence Singleton(Item item) { return Sequence(std::move(item)); }

  bool empty() const { return items_.empty(); }
  size_t size() const { return items_.size(); }
  const Item& at(size_t i) const { return items_[i]; }
  const std::vector<Item>& items() const { return items_; }

  void Append(Item item) {
    items_.push_back(std::move(item));
    ordered_deduped_ = false;
    fresh_ = false;
  }
  // Concatenation -- the only way to combine sequences, and it flattens.
  // Appending to an empty sequence preserves the other's order invariant;
  // any other concatenation invalidates it. The copied items are not fresh.
  void AppendSequence(const Sequence& other) {
    if (other.items_.empty()) return;
    ordered_deduped_ = items_.empty() && other.ordered_deduped_;
    fresh_ = false;
    items_.insert(items_.end(), other.items_.begin(), other.items_.end());
  }
  // Move-aware overload for the path/FLWOR hot loops: steals the other
  // sequence's storage instead of copying every Item. The result is fresh
  // when both parts were (an empty part does not count).
  void AppendSequence(Sequence&& other) {
    if (other.items_.empty()) return;
    if (items_.empty()) {
      *this = std::move(other);
    } else {
      ordered_deduped_ = false;
      fresh_ = fresh_ && other.fresh_;
      items_.insert(items_.end(),
                    std::make_move_iterator(other.items_.begin()),
                    std::make_move_iterator(other.items_.end()));
    }
    other.items_.clear();
    other.ordered_deduped_ = false;
    other.fresh_ = false;
  }

  // True if every item is a node.
  bool AllNodes() const;
  // True if any item is a node.
  bool AnyNode() const;

  // The order invariant: true means "if this is a node sequence, it is in
  // document order with no duplicate nodes". Set by sorting, or by an
  // evaluator step whose candidates come out in order (one context, a
  // forward axis); cleared by any mutation that could break it. Lets
  // already-sorted sequences skip the re-sort that the flat XDM otherwise
  // forces after every path step.
  bool ordered_deduped() const { return ordered_deduped_; }
  void MarkOrderedDeduped() { ordered_deduped_ = true; }

  // The adoption bit: true means "every node item is a node a constructor
  // of this evaluation just built, and nothing but this value refers to
  // it". Set only by the element, text and comment constructors on their
  // own result; kept by moves, and by AppendSequence(&&) when both parts
  // have it; cleared by copies, Append and AppendSequence(const&). So a
  // value that was stored and read back (a variable, the call memo, a
  // builtin's result) is never fresh, and a constructor may attach a fresh
  // value's parentless nodes as its children instead of copying them.
  bool fresh() const { return fresh_; }
  void MarkFresh() { fresh_ = true; }

  // Sorts node items into document order and removes duplicate nodes.
  // Precondition: AllNodes(). Path steps and `union` produce this form.
  // No-op (returns false) when the sequence is already known-ordered or has
  // at most one item; returns true if a sort pass actually ran. When
  // `compare_count` is non-null it is incremented once per comparator call.
  bool SortDocumentOrderAndDedup(size_t* compare_count = nullptr);

  // fn:data(): atomizes every item.
  Sequence Atomized() const;

  // Space-joined string forms -- handy for diagnostics and fn:string-join-ish
  // test assertions.
  std::string DebugString() const;

 private:
  std::vector<Item> items_;
  bool ordered_deduped_ = false;
  bool fresh_ = false;
};

// The effective boolean value (XPath 2.0 rules): empty -> false; first item a
// node -> true; singleton boolean/number/string by value; any other
// many-item sequence is a type error (err:FORG0006).
Result<bool> EffectiveBooleanValue(const Sequence& seq);

// Requires a sequence of exactly one item (the paper's "singleton" contract).
Result<Item> RequireSingleton(const Sequence& seq, const char* what);

// Empty-or-one: empty gives nullopt-like empty Sequence semantics; used for
// optional arguments.
Result<Sequence> RequireAtMostOne(const Sequence& seq, const char* what);

}  // namespace lll::xdm

#endif  // LLL_XDM_SEQUENCE_H_
