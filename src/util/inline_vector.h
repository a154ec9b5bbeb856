// A vector of trivially copyable elements that keeps its first N elements
// inline and moves to the heap only past that. The index path uses it for
// B-tree keys and TID lists, which are almost always a few bytes and a few
// versions: building or returning one then allocates nothing.

#pragma once

#include <algorithm>
#include <compare>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <type_traits>

#include "src/util/status.h"

namespace invfs {

template <typename T, size_t N>
class InlineVector {
  static_assert(std::is_trivially_copyable_v<T>);
  static_assert(N > 0 && N <= UINT32_MAX);

 public:
  using value_type = T;
  using iterator = T*;
  using const_iterator = const T*;

  static constexpr size_t kInlineCapacity = N;

  InlineVector() = default;
  explicit InlineVector(std::span<const T> items) { append(items); }
  InlineVector(const InlineVector& other) { append(other); }
  InlineVector(InlineVector&& other) noexcept { Take(other); }
  InlineVector& operator=(const InlineVector& other) {
    if (this != &other) {
      size_ = 0;
      append(other);
    }
    return *this;
  }
  InlineVector& operator=(InlineVector&& other) noexcept {
    if (this != &other) {
      Free();
      Take(other);
    }
    return *this;
  }
  ~InlineVector() { Free(); }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  // True once the elements outgrew the inline storage.
  bool on_heap() const { return cap_ > N; }

  T* data() { return on_heap() ? heap_ : reinterpret_cast<T*>(inline_); }
  const T* data() const {
    return on_heap() ? heap_ : reinterpret_cast<const T*>(inline_);
  }
  T* begin() { return data(); }
  T* end() { return data() + size_; }
  const T* begin() const { return data(); }
  const T* end() const { return data() + size_; }
  const T& operator[](size_t i) const { return data()[i]; }

  void reserve(size_t n) {
    if (n > cap_) {
      Reallocate(std::max<size_t>(n, 2 * size_t{cap_}));
    }
  }
  // Appends `n` elements for the caller to write and returns the first.
  T* grow(size_t n) {
    reserve(size_ + n);
    T* out = data() + size_;
    size_ += static_cast<uint32_t>(n);
    return out;
  }
  void push_back(const T& v) { *grow(1) = v; }
  void append(std::span<const T> items) {
    if (!items.empty()) {
      std::memcpy(grow(items.size()), items.data(), items.size() * sizeof(T));
    }
  }

  friend bool operator==(const InlineVector& a, const InlineVector& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }
  friend auto operator<=>(const InlineVector& a, const InlineVector& b) {
    return std::lexicographical_compare_three_way(a.begin(), a.end(), b.begin(),
                                                  b.end());
  }

 private:
  void Reallocate(size_t cap) {
    INV_CHECK(cap <= UINT32_MAX);
    T* fresh = std::allocator<T>().allocate(cap);
    if (size_ != 0) {
      std::memcpy(fresh, data(), size_ * sizeof(T));
    }
    Free();
    heap_ = fresh;
    cap_ = static_cast<uint32_t>(cap);
  }
  void Free() {
    if (on_heap()) {
      std::allocator<T>().deallocate(heap_, cap_);
      cap_ = N;
    }
  }
  // Moves `other`'s elements here (this holds nothing) and empties it.
  void Take(InlineVector& other) {
    size_ = other.size_;
    cap_ = other.cap_;
    if (other.on_heap()) {
      heap_ = other.heap_;
    } else if (size_ != 0) {
      std::memcpy(inline_, other.inline_, size_ * sizeof(T));
    }
    other.size_ = 0;
    other.cap_ = N;
  }

  uint32_t size_ = 0;
  uint32_t cap_ = N;  // N: the elements are inline; more: on the heap
  union {
    T* heap_;
    alignas(T) std::byte inline_[N * sizeof(T)];
  };
};

}  // namespace invfs
