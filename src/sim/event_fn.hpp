// The simulator's event callback: a move-only `void()` callable that keeps
// its closure inline.
//
// Every event the queue runs carries one of these, so the type sits on the
// schedule/fire path of every simulated cycle. A std::function allocates
// for any capture over 16 bytes; the receive path's hot closures are
// 40-80 bytes (a frame descriptor plus a few pointers), so this one holds
// up to kInline bytes in place and only a larger closure falls back to
// the heap.
#pragma once

#include <cstddef>
#include <functional>
#include <new>
#include <type_traits>
#include <utility>

namespace ash::sim {

namespace detail {
/// Callables with an empty state that an EventFn maps to empty.
template <class D>
inline constexpr bool kNullable = std::is_pointer_v<D>;
template <class R, class... A>
inline constexpr bool kNullable<std::function<R(A...)>> = true;
}  // namespace detail

class EventFn {
 public:
  /// Closures up to this size (and the default alignment) live inline.
  static constexpr std::size_t kInline = 88;

  EventFn() noexcept = default;
  EventFn(std::nullptr_t) noexcept {}

  /// Wrap any `void()` callable, implicitly like std::function: an lvalue
  /// is copied, an rvalue moved. An empty std::function or null function
  /// pointer gives an empty EventFn.
  template <class F, class D = std::decay_t<F>>
    requires(!std::is_same_v<D, EventFn> && std::is_invocable_v<D&>)
  EventFn(F&& f) {
    if constexpr (detail::kNullable<D>) {
      if (!f) return;
    }
    if constexpr (kFitsInline<D>) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      ops_ = &kInlineOps<D>;
    } else {
      ::new (static_cast<void*>(buf_)) D*(new D(std::forward<F>(f)));
      ops_ = &kBoxedOps<D>;
    }
  }

  EventFn(EventFn&& o) noexcept { take(o); }
  EventFn& operator=(EventFn&& o) noexcept {
    if (this != &o) {
      reset();
      take(o);
    }
    return *this;
  }
  template <class F>
    requires std::is_constructible_v<EventFn, F&&>
  EventFn& operator=(F&& f) {
    return *this = EventFn(std::forward<F>(f));
  }
  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;
  ~EventFn() { reset(); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  /// Run the callable; throws std::bad_function_call when empty.
  void operator()() {
    if (ops_ == nullptr) throw std::bad_function_call();
    ops_->call(buf_);
  }

 private:
  struct Ops {
    void (*call)(void* self);
    /// Move-construct at `to` from `from`, then destroy `from`.
    void (*relocate)(void* to, void* from) noexcept;
    void (*destroy)(void* self) noexcept;
  };

  template <class D>
  static constexpr bool kFitsInline =
      sizeof(D) <= kInline && alignof(D) <= alignof(std::max_align_t) &&
      std::is_nothrow_move_constructible_v<D>;

  template <class D>
  static D* as(void* p) noexcept {
    return std::launder(static_cast<D*>(p));
  }

  template <class D>
  static constexpr Ops kInlineOps{
      [](void* p) { (*as<D>(p))(); },
      [](void* to, void* from) noexcept {
        D* f = as<D>(from);
        ::new (to) D(std::move(*f));
        f->~D();
      },
      [](void* p) noexcept { as<D>(p)->~D(); }};

  template <class D>
  static constexpr Ops kBoxedOps{
      [](void* p) { (**as<D*>(p))(); },
      [](void* to, void* from) noexcept { ::new (to) D*(*as<D*>(from)); },
      [](void* p) noexcept { delete *as<D*>(p); }};

  void take(EventFn& o) noexcept {
    if (o.ops_ == nullptr) return;
    o.ops_->relocate(buf_, o.buf_);
    ops_ = std::exchange(o.ops_, nullptr);
  }
  void reset() noexcept {
    if (ops_ != nullptr) std::exchange(ops_, nullptr)->destroy(buf_);
  }

  alignas(std::max_align_t) unsigned char buf_[kInline];
  const Ops* ops_ = nullptr;
};

}  // namespace ash::sim
