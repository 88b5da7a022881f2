// The callable the event queue stores: move-only, with a small inline buffer.
//
// Every event the simulator schedules is a lambda, so the callable type is
// on the per-packet path.  A capture of up to kInlineBytes (the 16-B
// `[this, input]` wake-ups and the 24-B `[this, &sim, horizon]` generator
// chains) lives inside the Callback itself.  A larger capture (the
// packet-carrying events hold a whole 112-B net::Packet) lives in a block
// taken from a per-thread free list of blocks in 16-B size classes up to
// 256 B: a block is allocated once, the first time the thread needs that
// many of its class at once, and recycled from then on.  Nothing is
// returned to the allocator until the thread exits, so a thread's free lists
// hold at most its peak number of simultaneously live large captures.
// Captures over 256 B (none in this repository) get a fresh allocation each.
//
// Copying is not supported, which lets a capture hold move-only state.
#ifndef XDRS_SIM_CALLBACK_HPP
#define XDRS_SIM_CALLBACK_HPP

#include <cstddef>
#include <cstring>
#include <functional>
#include <new>
#include <type_traits>
#include <utility>

namespace xdrs::sim {

namespace detail {
/// A block of at least `bytes`, aligned for any fundamental type, from the
/// calling thread's free list of its size class.
[[nodiscard]] void* capture_alloc(std::size_t bytes);
/// Returns a block from capture_alloc(bytes) to the calling thread's list.
void capture_free(void* block, std::size_t bytes) noexcept;
}  // namespace detail

class Callback {
 public:
  static constexpr std::size_t kInlineBytes = 24;

  Callback() noexcept = default;

  template <class F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, Callback> &&
             std::is_invocable_r_v<void, std::decay_t<F>&>)
  Callback(F&& f) {  // NOLINT(google-explicit-constructor): lambdas convert implicitly
    using Fn = std::decay_t<F>;
    static_assert(alignof(Fn) <= alignof(std::max_align_t), "over-aligned capture");
    if constexpr (kFitsInline<Fn>) {
      ::new (static_cast<void*>(storage_.bytes)) Fn(std::forward<F>(f));
      ops_ = &kInlineOps<Fn>;
    } else {
      void* block = detail::capture_alloc(sizeof(Fn));
      try {
        ::new (block) Fn(std::forward<F>(f));
      } catch (...) {
        detail::capture_free(block, sizeof(Fn));
        throw;
      }
      storage_.block = block;
      ops_ = &kBlockOps<Fn>;
    }
  }

  Callback(Callback&& other) noexcept { take(other); }
  Callback& operator=(Callback&& other) noexcept {
    if (this != &other) {
      reset();
      take(other);
    }
    return *this;
  }
  Callback(const Callback&) = delete;
  Callback& operator=(const Callback&) = delete;
  ~Callback() { reset(); }

  /// Invokes the stored callable.  Throws std::bad_function_call if empty.
  void operator()() {
    if (ops_ == nullptr) throw std::bad_function_call{};
    ops_->invoke(storage_);
  }

  [[nodiscard]] explicit operator bool() const noexcept { return ops_ != nullptr; }

 private:
  union Storage {
    void* block;
    alignas(void*) std::byte bytes[kInlineBytes];
  };

  /// Per-type operations.  A null `relocate` means a byte copy of the
  /// storage moves the callable (trivially copyable inline captures, and
  /// every block-held one, whose storage is just the block pointer); a null
  /// `destroy` means there is nothing to release.
  struct Ops {
    void (*invoke)(Storage&);
    void (*relocate)(Storage& to, Storage& from) noexcept;
    void (*destroy)(Storage&) noexcept;
  };

  template <class Fn>
  static constexpr bool kFitsInline = sizeof(Fn) <= kInlineBytes &&
                                      alignof(Fn) <= alignof(Storage) &&
                                      std::is_nothrow_move_constructible_v<Fn>;

  template <class Fn>
  static Fn& inline_fn(Storage& s) noexcept {
    return *std::launder(reinterpret_cast<Fn*>(s.bytes));
  }

  template <class Fn>
  static constexpr Ops kInlineOps{
      [](Storage& s) { inline_fn<Fn>(s)(); },
      std::is_trivially_copyable_v<Fn>
          ? nullptr
          : +[](Storage& to, Storage& from) noexcept {
              ::new (static_cast<void*>(to.bytes)) Fn(std::move(inline_fn<Fn>(from)));
              inline_fn<Fn>(from).~Fn();
            },
      std::is_trivially_destructible_v<Fn>
          ? nullptr
          : +[](Storage& s) noexcept { inline_fn<Fn>(s).~Fn(); }};

  template <class Fn>
  static constexpr Ops kBlockOps{
      [](Storage& s) { (*static_cast<Fn*>(s.block))(); },
      nullptr,
      [](Storage& s) noexcept {
        static_cast<Fn*>(s.block)->~Fn();
        detail::capture_free(s.block, sizeof(Fn));
      }};

  void take(Callback& other) noexcept {
    ops_ = std::exchange(other.ops_, nullptr);
    if (ops_ == nullptr) return;
    if (ops_->relocate == nullptr) {
      std::memcpy(&storage_, &other.storage_, sizeof storage_);
    } else {
      ops_->relocate(storage_, other.storage_);
    }
  }

  void reset() noexcept {
    if (ops_ != nullptr && ops_->destroy != nullptr) ops_->destroy(storage_);
    ops_ = nullptr;
  }

  const Ops* ops_{nullptr};
  Storage storage_{};
};

}  // namespace xdrs::sim

#endif  // XDRS_SIM_CALLBACK_HPP
