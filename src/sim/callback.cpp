#include "sim/callback.hpp"

#include <array>

namespace xdrs::sim::detail {
namespace {

constexpr std::size_t kClassBytes = 16;
constexpr std::size_t kClasses = 16;  // blocks of 16, 32, ..., 256 B

struct FreeBlock {
  FreeBlock* next;
};

/// One thread's free lists.  Every block is its own operator-new
/// allocation, so a block may be freed on another thread than the one that
/// allocated it, and the lists can be dropped block by block at thread exit.
struct FreeLists {
  std::array<FreeBlock*, kClasses> head{};
  ~FreeLists();
};

thread_local FreeLists t_lists;
// Set once t_lists is destroyed: a Callback released later on this thread
// (by a thread_local or static destroyed after it) bypasses the lists.
thread_local bool t_lists_gone = false;

FreeLists::~FreeLists() {
  for (FreeBlock*& list : head) {
    while (list != nullptr) ::operator delete(std::exchange(list, list->next));
  }
  t_lists_gone = true;
}

}  // namespace

void* capture_alloc(std::size_t bytes) {
  const std::size_t cls = (bytes - 1) / kClassBytes;
  if (cls >= kClasses || t_lists_gone) return ::operator new(bytes);
  FreeBlock*& list = t_lists.head[cls];
  if (list == nullptr) return ::operator new((cls + 1) * kClassBytes);
  return std::exchange(list, list->next);
}

void capture_free(void* block, std::size_t bytes) noexcept {
  const std::size_t cls = (bytes - 1) / kClassBytes;
  if (cls >= kClasses || t_lists_gone) {
    ::operator delete(block);
    return;
  }
  FreeBlock*& list = t_lists.head[cls];
  list = ::new (block) FreeBlock{list};
}

}  // namespace xdrs::sim::detail
