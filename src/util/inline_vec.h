#ifndef EMSIM_UTIL_INLINE_VEC_H_
#define EMSIM_UTIL_INLINE_VEC_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>

#include "util/check.h"

namespace emsim {

/// Small-buffer vector for the kernel's waiter lists: the first `N` elements
/// live inline (no heap), growth beyond that moves to the heap. Waiter lists
/// on Event/Signal hold 0–2 entries almost all of the time, so the
/// common case never allocates. Restricted to trivially copyable element
/// types (coroutine handles, pointers) so growth and moves are memcpy.
template <typename T, std::size_t N>
class InlineVec {
  static_assert(std::is_trivially_copyable_v<T>,
                "InlineVec is for trivially copyable elements (handles, pointers)");
  static_assert(N >= 1, "inline capacity must be at least 1");

 public:
  InlineVec() = default;

  InlineVec(const InlineVec&) = delete;
  InlineVec& operator=(const InlineVec&) = delete;

  /// Steals the other vector's contents, leaving it empty (used by
  /// Signal::Fire to detach the current waiter generation in O(1) when the
  /// list has spilled to the heap).
  InlineVec(InlineVec&& other) noexcept {
    if (other.OnHeap()) {
      data_ = other.data_;
      capacity_ = other.capacity_;
    } else {
      std::memcpy(InlineData(), other.InlineData(), other.size_ * sizeof(T));
    }
    size_ = other.size_;
    other.data_ = nullptr;
    other.capacity_ = static_cast<uint32_t>(N);
    other.size_ = 0;
  }
  InlineVec& operator=(InlineVec&&) = delete;

  ~InlineVec() {
    if (OnHeap()) {
      ::operator delete(data_);
    }
  }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  void push_back(T value) {
    if (size_ == capacity_) {
      Grow();
    }
    Data()[size_++] = value;
  }

  void pop_back() {
    EMSIM_DCHECK(size_ > 0);
    --size_;
  }

  T& operator[](std::size_t i) {
    EMSIM_DCHECK(i < size_);
    return Data()[i];
  }
  const T& operator[](std::size_t i) const {
    EMSIM_DCHECK(i < size_);
    return Data()[i];
  }

  /// Keeps any heap buffer for reuse — waiter lists refill constantly.
  void clear() { size_ = 0; }

  T* begin() { return Data(); }
  T* end() { return Data() + size_; }
  const T* begin() const { return Data(); }
  const T* end() const { return Data() + size_; }

 private:
  bool OnHeap() const { return data_ != nullptr; }
  T* InlineData() { return reinterpret_cast<T*>(inline_storage_); }
  const T* InlineData() const { return reinterpret_cast<const T*>(inline_storage_); }
  T* Data() { return OnHeap() ? data_ : InlineData(); }
  const T* Data() const { return OnHeap() ? data_ : InlineData(); }

  void Grow() {
    uint32_t new_capacity = capacity_ * 2;
    T* heap = static_cast<T*>(::operator new(new_capacity * sizeof(T)));
    std::memcpy(heap, Data(), size_ * sizeof(T));
    if (OnHeap()) {
      ::operator delete(data_);
    }
    data_ = heap;
    capacity_ = new_capacity;
  }

  T* data_ = nullptr;  // Null while the inline buffer is in use.
  uint32_t size_ = 0;
  uint32_t capacity_ = static_cast<uint32_t>(N);
  alignas(T) unsigned char inline_storage_[N * sizeof(T)];
};

}  // namespace emsim

#endif  // EMSIM_UTIL_INLINE_VEC_H_
