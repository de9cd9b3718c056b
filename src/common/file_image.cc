#include "common/file_image.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <string>
#include <utility>

#include "common/huge_pages.h"

namespace swim {
namespace {

/// Closes the descriptor on every return path.
struct ScopedFd {
  int fd;
  ~ScopedFd() {
    if (fd >= 0) close(fd);
  }
};

}  // namespace

FileImage::~FileImage() { Release(); }

FileImage::FileImage(FileImage&& other) noexcept
    : data_(std::exchange(other.data_, nullptr)),
      size_(std::exchange(other.size_, 0)),
      mapped_(std::exchange(other.mapped_, false)),
      alignment_(other.alignment_) {}

FileImage& FileImage::operator=(FileImage&& other) noexcept {
  if (this == &other) return *this;
  Release();
  data_ = std::exchange(other.data_, nullptr);
  size_ = std::exchange(other.size_, 0);
  mapped_ = std::exchange(other.mapped_, false);
  alignment_ = other.alignment_;
  return *this;
}

void FileImage::Release() {
  if (data_ == nullptr) return;
  if (mapped_) {
    munmap(data_, size_);
  } else {
    ::operator delete[](data_, alignment_);
  }
  data_ = nullptr;
  size_ = 0;
  mapped_ = false;
}

FileImage FileImage::Allocate(size_t size) {
  FileImage image;
  if (size == 0) return image;
  image.alignment_ = std::align_val_t{size >= kHugePageBytes ? kHugePageBytes
                                                             : kAlignment};
  image.data_ =
      static_cast<unsigned char*>(::operator new[](size, image.alignment_));
  image.size_ = size;
  // With huge pages, reading a 100 MB file into the buffer is about twice
  // as fast.
  AdviseHugePages(image.data_, size);
  return image;
}

StatusOr<FileImage> FileImage::Read(const std::string& path, uint64_t offset,
                                     size_t max_bytes) {
  return Load(path, /*map=*/false, offset, max_bytes);
}

StatusOr<FileImage> FileImage::Map(const std::string& path) {
  return Load(path, /*map=*/true, 0, SIZE_MAX);
}

StatusOr<FileImage> FileImage::Load(const std::string& path, bool map,
                                    uint64_t offset, size_t max_bytes) {
  const ScopedFd in{open(path.c_str(), O_RDONLY | O_CLOEXEC)};
  if (in.fd < 0) return IoError("cannot open for reading: " + path);
  struct stat st;
  if (fstat(in.fd, &st) != 0) return IoError("cannot stat: " + path);
  // A directory opens and stats fine but has no bytes to read; its
  // st_size is not a byte count.
  if (!S_ISREG(st.st_mode)) return IoError("not a regular file: " + path);
  const uint64_t file_size = static_cast<uint64_t>(st.st_size);
  if (file_size < offset) {
    return FailedPreconditionError(path + " is shorter than the " +
                                   std::to_string(offset) + " bytes read");
  }
  const size_t size =
      static_cast<size_t>(std::min<uint64_t>(file_size - offset, max_bytes));
  if (map && size > 0) {
    void* mapping = mmap(nullptr, size, PROT_READ, MAP_PRIVATE, in.fd, 0);
    if (mapping != MAP_FAILED) {
      FileImage image;
      image.data_ = static_cast<unsigned char*>(mapping);
      image.size_ = size;
      image.mapped_ = true;
      return image;
    }
  }
  FileImage image = Allocate(size);
  size_t done = 0;
  while (done < size) {
    const ssize_t got =
        pread(in.fd, image.data_ + done, size - done,
              static_cast<off_t>(offset + done));
    if (got > 0) {
      done += static_cast<size_t>(got);
    } else if (got < 0 && errno == EINTR) {
      continue;
    } else {
      break;
    }
  }
  if (done != size) return IoError("read failed: " + path);
  return image;
}

}  // namespace swim
