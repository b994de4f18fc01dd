#include "src/util/batch.h"

#include <stdexcept>

namespace vuvuzela::util {

Batch::Batch(size_t count, size_t item_size)
    : count_(count), item_size_(item_size), data_(count * item_size) {}

Batch::Batch(Batch&& other) noexcept
    : count_(other.count_), item_size_(other.item_size_), data_(std::move(other.data_)) {
  other.count_ = 0;
}

Batch& Batch::operator=(Batch&& other) noexcept {
  count_ = other.count_;
  item_size_ = other.item_size_;
  data_ = std::move(other.data_);
  other.count_ = 0;
  return *this;
}

std::vector<ByteSpan> Batch::Views() const {
  std::vector<ByteSpan> views;
  views.reserve(count_);
  for (size_t i = 0; i < count_; ++i) {
    views.push_back((*this)[i]);
  }
  return views;
}

std::vector<Bytes> Batch::ToVectors() const {
  std::vector<Bytes> items;
  items.reserve(count_);
  for (size_t i = 0; i < count_; ++i) {
    ByteSpan item = (*this)[i];
    items.emplace_back(item.begin(), item.end());
  }
  return items;
}

void Batch::Truncate(size_t count) {
  if (count > count_) {
    throw std::invalid_argument("Batch::Truncate: count exceeds size");
  }
  count_ = count;
}

void Batch::Permute(std::span<const uint32_t> perm) {
  if (perm.size() != count_) {
    throw std::invalid_argument("Batch::Permute: size mismatch");
  }
  // Follow each cycle once: save the item its first position loses, pull
  // every later source forward, and drop the saved item into the last hole.
  std::vector<uint8_t> placed(count_, 0);
  Bytes held(item_size_);
  for (size_t start = 0; start < count_; ++start) {
    if (placed[start] || perm[start] == start) {
      continue;
    }
    std::memcpy(held.data(), (*this)[start].data(), item_size_);
    for (size_t k = start;;) {
      placed[k] = 1;
      size_t source = perm[k];
      if (source == start) {
        std::memcpy((*this)[k].data(), held.data(), item_size_);
        break;
      }
      if (source >= count_ || placed[source]) {
        throw std::invalid_argument("Batch::Permute: not a permutation");
      }
      std::memcpy((*this)[k].data(), (*this)[source].data(), item_size_);
      k = source;
    }
  }
}

PackedItems Batch::Pack() && {
  PackedItems packed;
  packed.items = Views();
  packed.bytes = std::move(data_);
  count_ = 0;
  return packed;
}

std::vector<ByteSpan> ViewsOf(const std::vector<Bytes>& items) {
  return std::vector<ByteSpan>(items.begin(), items.end());
}

}  // namespace vuvuzela::util
