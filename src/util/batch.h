// Flat batches: one buffer per batch instead of one heap block per item.
//
// The paper pads every request and response to one fixed size (§3.2), so at
// one hop in one round every item of a batch has the same length. A Batch
// stores such items back to back in one contiguous buffer, item i at
// [i * item_size, (i + 1) * item_size), and hands them out as spans. Whoever
// constructs it makes the one allocation; code that fills its items (the mix
// pass's pool workers) writes into strides and allocates nothing.
//
// PackedItems is the same idea for items of varying sizes — the dialing last
// hop's invitation drops — and the form a Batch takes when it is handed to a
// sender that keeps it (the hop daemon's replay slot): one buffer plus a view
// of each item inside it.
//
// InPlaceBatch is the output of a pass that works inside its caller's
// buffer: a view of each item, most of them into that buffer, the rest into
// the one small batch the pass made itself.

#ifndef VUVUZELA_SRC_UTIL_BATCH_H_
#define VUVUZELA_SRC_UTIL_BATCH_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/util/bytes.h"

namespace vuvuzela::util {

// One buffer and a view of each item in it. The views point into `bytes`,
// whose heap block survives a move, so the struct is move-only: a copy's
// views would still point into the original.
struct PackedItems {
  Bytes bytes;
  std::vector<ByteSpan> items;

  PackedItems() = default;
  PackedItems(PackedItems&&) = default;
  PackedItems& operator=(PackedItems&&) = default;
  PackedItems(const PackedItems&) = delete;
  PackedItems& operator=(const PackedItems&) = delete;
};

class Batch {
 public:
  Batch() = default;
  // `count` items of `item_size` bytes each, zero-filled.
  Batch(size_t count, size_t item_size);

  // Move-only: batches are large, and a copy should be an explicit decision
  // (ToVectors, or a memcpy of bytes()).
  Batch(Batch&&) noexcept;
  Batch& operator=(Batch&&) noexcept;
  Batch(const Batch&) = delete;
  Batch& operator=(const Batch&) = delete;

  size_t size() const { return count_; }
  size_t item_size() const { return item_size_; }
  // Every item, back to back.
  ByteSpan bytes() const { return ByteSpan(data_.data(), count_ * item_size_); }

  MutableByteSpan operator[](size_t i) {
    return MutableByteSpan(data_.data() + i * item_size_, item_size_);
  }
  ByteSpan operator[](size_t i) const {
    return ByteSpan(data_.data() + i * item_size_, item_size_);
  }

  // A view of each item, in order.
  std::vector<ByteSpan> Views() const;
  // An owned copy of each item, for interfaces that hand out byte vectors.
  std::vector<Bytes> ToVectors() const;

  // Hands the buffer over with a view of each item, leaving this batch
  // empty.
  PackedItems Pack() &&;

 private:
  size_t count_ = 0;
  size_t item_size_ = 0;
  Bytes data_;
};

// A pass's output written inside its caller's buffer: `items` views each
// item in order, either where the pass left it in that buffer (a peeled
// onion, a response sealed over its request) or in `owned`, the one batch of
// items the pass made itself (cover onions, the slots of missized requests).
// The views stay valid while the caller's buffer lives and survive a move
// (`owned`'s heap block moves with it). Move-only, like Batch.
struct InPlaceBatch {
  std::vector<MutableByteSpan> items;
  Batch owned;

  size_t size() const { return items.size(); }
  // An owned copy of each item, for interfaces that hand out byte vectors.
  std::vector<Bytes> ToVectors() const;
  // Hands `owned`'s buffer over with a view of each item, leaving this batch
  // empty. The views into the caller's buffer stay views into it.
  PackedItems Pack() &&;
};

// A view of each vector item, for the span interfaces (the mix passes, the
// batch-message senders). The views die with `items`.
std::vector<ByteSpan> ViewsOf(const std::vector<Bytes>& items);
// Writable views, for the passes that work inside their input.
std::vector<MutableByteSpan> MutableViewsOf(std::vector<Bytes>& items);

}  // namespace vuvuzela::util

#endif  // VUVUZELA_SRC_UTIL_BATCH_H_
