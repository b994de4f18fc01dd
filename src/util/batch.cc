#include "src/util/batch.h"

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

PackedItems Batch::Pack() && {
  PackedItems packed;
  packed.items = Views();
  packed.bytes = std::move(data_);
  count_ = 0;
  return packed;
}

std::vector<Bytes> InPlaceBatch::ToVectors() const {
  std::vector<Bytes> copies;
  copies.reserve(items.size());
  for (ByteSpan item : items) {
    copies.emplace_back(item.begin(), item.end());
  }
  return copies;
}

PackedItems InPlaceBatch::Pack() && {
  PackedItems packed;
  packed.items.assign(items.begin(), items.end());
  packed.bytes = std::move(owned).Pack().bytes;
  items.clear();
  return packed;
}

std::vector<ByteSpan> ViewsOf(const std::vector<Bytes>& items) {
  return std::vector<ByteSpan>(items.begin(), items.end());
}

std::vector<MutableByteSpan> MutableViewsOf(std::vector<Bytes>& items) {
  return std::vector<MutableByteSpan>(items.begin(), items.end());
}

}  // namespace vuvuzela::util
