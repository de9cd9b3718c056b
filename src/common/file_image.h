#ifndef SWIM_COMMON_FILE_IMAGE_H_
#define SWIM_COMMON_FILE_IMAGE_H_

#include <cstddef>
#include <new>
#include <string>
#include <string_view>

#include "common/statusor.h"

namespace swim {

/// The whole of one file in memory: either a read-only mapping or one heap
/// buffer of exactly the file's size, filled by a single open/fstat/read.
/// The one file reader behind both trace formats (ReadTraceCsv and the STF1
/// loaders). Move-only; the bytes live as long as the image.
class FileImage {
 public:
  /// Heap images are aligned to a cache line, and those of 2 MiB or more
  /// to 2 MiB so that huge pages can back them.
  static constexpr size_t kAlignment = 64;

  FileImage() = default;
  ~FileImage();
  FileImage(FileImage&& other) noexcept;
  FileImage& operator=(FileImage&& other) noexcept;
  FileImage(const FileImage&) = delete;
  FileImage& operator=(const FileImage&) = delete;

  /// Reads `path` into an exactly sized heap buffer. IoError when the path
  /// cannot be opened or stat'ed, is not a regular file (a directory, a
  /// pipe), or yields fewer bytes than its size. An empty file gives an
  /// empty image.
  static StatusOr<FileImage> Read(const std::string& path);

  /// As Read, but maps the file read-only where the platform allows; when
  /// mmap is refused (unusual file system, resource limit) it reads, which
  /// yields the same bytes.
  static StatusOr<FileImage> Map(const std::string& path);

  /// An uninitialized heap image of `size` bytes, for callers that fill it
  /// themselves.
  static FileImage Allocate(size_t size);

  const unsigned char* data() const { return data_; }
  unsigned char* mutable_data() { return data_; }
  size_t size() const { return size_; }
  bool mapped() const { return mapped_; }
  std::string_view view() const {
    return {reinterpret_cast<const char*>(data_), size_};
  }

 private:
  static StatusOr<FileImage> Load(const std::string& path, bool map);
  void Release();

  unsigned char* data_ = nullptr;
  size_t size_ = 0;
  bool mapped_ = false;
  std::align_val_t alignment_{kAlignment};
};

}  // namespace swim

#endif  // SWIM_COMMON_FILE_IMAGE_H_
