#include "common/pagestore.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace gpssn {

PageAllocator::PageAllocator(uint32_t page_size) : page_size_(page_size) {
  GPSSN_CHECK(page_size > 0);
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
    next_page_ += (nbytes + page_size_ - 1) / page_size_;
    return first;
  }
  if (used_ + nbytes > page_size_) {
    ++next_page_;
    used_ = 0;
  }
  const PageId page = next_page_;
  used_ += nbytes;
  return page;
}

uint32_t PageAllocator::PagesSpanned(uint32_t nbytes) const {
  if (nbytes <= page_size_) return 1;
  return (nbytes + page_size_ - 1) / page_size_;
}

BufferPool::BufferPool(uint32_t capacity_pages) : capacity_(capacity_pages) {}

void BufferPool::Access(PageId page) {
  ++stats_.logical_accesses;
  if (capacity_ == 0) {
    ++stats_.page_misses;
    return;
  }
  auto it = table_.find(page);
  if (it != table_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  ++stats_.page_misses;
  lru_.push_front(page);
  table_[page] = lru_.begin();
  if (table_.size() > capacity_) {
    const PageId victim = lru_.back();
    lru_.pop_back();
    table_.erase(victim);
  }
}

void BufferPool::AccessRun(PageId page, uint32_t count) {
  for (uint32_t i = 0; i < count; ++i) Access(page + i);
}

void BufferPool::Clear() {
  lru_.clear();
  table_.clear();
}

MappedFile::~MappedFile() {
  if (addr_ != nullptr) ::munmap(addr_, size_);
}

MappedFile::MappedFile(MappedFile&& other) noexcept
    : addr_(other.addr_), size_(other.size_) {
  other.addr_ = nullptr;
  other.size_ = 0;
}

MappedFile& MappedFile::operator=(MappedFile&& other) noexcept {
  if (this != &other) {
    if (addr_ != nullptr) ::munmap(addr_, size_);
    addr_ = other.addr_;
    size_ = other.size_;
    other.addr_ = nullptr;
    other.size_ = 0;
  }
  return *this;
}

Result<MappedFile> MappedFile::Open(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::IoError("cannot open " + path + ": " +
                           std::strerror(errno));
  }
  struct ::stat st {};
  if (::fstat(fd, &st) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Status::IoError("cannot stat " + path + ": " + err);
  }
  MappedFile mapped;
  if (st.st_size <= 0) {  // mmap rejects a zero length.
    ::close(fd);
    return mapped;
  }
  const size_t bytes = static_cast<size_t>(st.st_size);
  void* addr = ::mmap(nullptr, bytes, PROT_READ, MAP_PRIVATE, fd, 0);
  // The mapping holds its own reference to the file; the descriptor can go.
  ::close(fd);
  if (addr == MAP_FAILED) {
    return Status::IoError("cannot mmap " + path + ": " +
                           std::strerror(errno));
  }
  mapped.addr_ = addr;
  mapped.size_ = bytes;
  return mapped;
}

}  // namespace gpssn
