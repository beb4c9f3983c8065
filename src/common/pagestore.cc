#include "common/pagestore.h"

#include <algorithm>

namespace gpssn {

PageAllocator::PageAllocator(uint32_t page_size, PageId first_page,
                             PageId end_page)
    : page_size_(page_size), next_page_(first_page), end_page_(end_page) {
  GPSSN_CHECK(page_size > 0 && first_page < end_page);
}

PageId PageAllocator::Place(uint32_t nbytes) {
  if (nbytes == 0) nbytes = 1;
  if (nbytes > page_size_) {
    // Large object: give it dedicated pages starting on a fresh page.
    if (used_ > 0) {
      ++next_page_;
      used_ = 0;
    }
    const PageId first = next_page_;
    const uint64_t end = uint64_t{first} + PagesSpanned(nbytes);
    GPSSN_CHECK(end <= end_page_);
    next_page_ = static_cast<PageId>(end);
    return first;
  }
  if (used_ + nbytes > page_size_) {
    ++next_page_;
    used_ = 0;
  }
  GPSSN_CHECK(next_page_ < end_page_);
  const PageId page = next_page_;
  used_ += nbytes;
  return page;
}

uint32_t PageAllocator::PagesSpanned(uint32_t nbytes) const {
  if (nbytes <= page_size_) return 1;
  return (nbytes + page_size_ - 1) / page_size_;
}

BufferPool::BufferPool(uint32_t capacity_pages) : capacity_(capacity_pages) {
  if (capacity_ == 0) return;
  // The smallest power of two >= 2 × capacity and >= 4, so the table keeps
  // an empty bucket even while it holds capacity + 1 pages mid-eviction.
  int bits = 2;
  while ((uint64_t{1} << bits) < 2 * uint64_t{capacity_}) ++bits;
  GPSSN_CHECK(bits <= 32);
  mask_ = static_cast<uint32_t>((uint64_t{1} << bits) - 1);
  shift_ = 64 - bits;
  slots_.resize(capacity_);
  table_.resize(size_t{mask_} + 1);
}

uint32_t BufferPool::Home(PageId page) const {
  return static_cast<uint32_t>((page * 0x9E3779B97F4A7C15ull) >> shift_);
}

void BufferPool::Access(PageId page) {
  ++stats_.logical_accesses;
  if (capacity_ == 0) {
    ++stats_.page_misses;
    return;
  }
  if (head_ != kNoSlot && slots_[head_].page == page) return;
  GPSSN_DCHECK(page != kInvalidPage);
  uint32_t b = Home(page);
  for (; table_[b].page != kInvalidPage; b = (b + 1) & mask_) {
    if (table_[b].page == page) {
      const uint32_t slot = table_[b].slot;
      Unlink(slot);
      PushFront(slot);
      return;
    }
  }
  ++stats_.page_misses;
  uint32_t slot;
  PageId victim = kInvalidPage;
  if (used_ < capacity_) {
    slot = used_++;
  } else {
    slot = tail_;  // Full: the new page takes the LRU page's slot.
    victim = slots_[slot].page;
    Unlink(slot);
  }
  // The new page enters the table before the victim leaves: the erase may
  // shift buckets, which would move the empty bucket found above.
  table_[b] = {page, slot};
  if (victim != kInvalidPage) EraseFromTable(victim);
  slots_[slot].page = page;
  PushFront(slot);
}

void BufferPool::EraseFromTable(PageId page) {
  uint32_t hole = Home(page);
  while (table_[hole].page != page) hole = (hole + 1) & mask_;
  // Backward shift: pull each later bucket of the cluster into the hole
  // when the hole lies on its probe path, so no probe crosses an empty
  // bucket before its page.
  for (uint32_t b = (hole + 1) & mask_; table_[b].page != kInvalidPage;
       b = (b + 1) & mask_) {
    const uint32_t home = Home(table_[b].page);
    if (((b - home) & mask_) >= ((b - hole) & mask_)) {
      table_[hole] = table_[b];
      hole = b;
    }
  }
  table_[hole] = Bucket();
}

void BufferPool::Unlink(uint32_t slot) {
  Slot& s = slots_[slot];
  if (s.prev != kNoSlot) {
    slots_[s.prev].next = s.next;
  } else {
    head_ = s.next;
  }
  if (s.next != kNoSlot) {
    slots_[s.next].prev = s.prev;
  } else {
    tail_ = s.prev;
  }
}

void BufferPool::PushFront(uint32_t slot) {
  Slot& s = slots_[slot];
  s.prev = kNoSlot;
  s.next = head_;
  if (head_ != kNoSlot) {
    slots_[head_].prev = slot;
  } else {
    tail_ = slot;
  }
  head_ = slot;
}

void BufferPool::AccessRun(PageId page, uint32_t count) {
  for (uint32_t i = 0; i < count; ++i) Access(page + i);
}

void BufferPool::Clear() {
  std::fill(table_.begin(), table_.end(), Bucket());
  used_ = 0;
  head_ = tail_ = kNoSlot;
}

}  // namespace gpssn
