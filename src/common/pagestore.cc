#include "common/pagestore.h"

namespace gpssn {

PageAllocator::PageAllocator(uint32_t page_size, PageId first_page,
                             PageId end_page)
    : page_size_(page_size),
      first_page_(first_page),
      next_page_(first_page),
      end_page_(end_page) {
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

BufferPool::BufferPool(uint32_t capacity_pages, uint32_t social_pages,
                       uint32_t poi_pages)
    : capacity_(capacity_pages),
      social_pages_(social_pages),
      poi_pages_(poi_pages) {
  GPSSN_CHECK(social_pages <= kPoiIndexFirstPage &&
              poi_pages <= kInvalidPage - kPoiIndexFirstPage);
  if (capacity_ == 0) return;
  slots_.resize(capacity_);
  slot_of_.assign(size_t{social_pages} + poi_pages, kNoSlot);
}

uint32_t BufferPool::PageIndex(PageId page) const {
  if (page < kPoiIndexFirstPage) {
    GPSSN_DCHECK(page < social_pages_);
    return page;
  }
  GPSSN_DCHECK(page - kPoiIndexFirstPage < poi_pages_);
  return social_pages_ + (page - kPoiIndexFirstPage);
}

void BufferPool::Access(PageId page) {
  ++stats_.logical_accesses;
  const uint32_t index = PageIndex(page);
  if (capacity_ == 0) {
    ++stats_.page_misses;
    return;
  }
  uint32_t slot = slot_of_[index];
  if (slot != kNoSlot) {
    if (slot != head_) {  // The MRU page needs no relinking.
      Unlink(slot);
      PushFront(slot);
    }
    return;
  }
  ++stats_.page_misses;
  if (used_ < capacity_) {
    slot = used_++;
  } else {
    slot = tail_;  // Full: the new page takes the LRU page's slot.
    slot_of_[slots_[slot].index] = kNoSlot;
    Unlink(slot);
  }
  slots_[slot].index = index;
  slot_of_[index] = slot;
  PushFront(slot);
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

}  // namespace gpssn
