#ifndef SWIM_COMMON_FILE_IMAGE_H_
#define SWIM_COMMON_FILE_IMAGE_H_

#include <cstddef>
#include <cstdint>
#include <new>
#include <string>
#include <string_view>

#include "common/statusor.h"

namespace swim {

/// One file, or a byte range of it, in memory: either a read-only mapping
/// or one heap buffer of exactly the bytes' size, filled by a single
/// open/fstat/read. The library's one file reader. Move-only; the bytes
/// live as long as the image.
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

  /// Reads bytes [offset, offset + max_bytes) of `path`, cut at its end
  /// (by default the whole file), into an exactly sized heap buffer.
  /// IoError when the path cannot be opened or stat'ed, is not a regular
  /// file (a directory, a pipe), or yields fewer bytes than its size;
  /// FailedPrecondition when the file is shorter than `offset`. An empty
  /// file gives an empty image.
  static StatusOr<FileImage> Read(const std::string& path, uint64_t offset = 0,
                                  size_t max_bytes = SIZE_MAX);

  /// As Read of the whole file, but maps it read-only where the platform
  /// allows; when mmap is refused (unusual file system, resource limit) it
  /// reads, which yields the same bytes.
  static StatusOr<FileImage> Map(const std::string& path);

  /// An uninitialized heap image of `size` bytes, for callers that fill it
  /// themselves.
  static FileImage Allocate(size_t size);

  const unsigned char* data() const { return data_; }
  unsigned char* mutable_data() { return data_; }
  size_t size() const { return size_; }
  std::string_view view() const {
    return {reinterpret_cast<const char*>(data_), size_};
  }

 private:
  static StatusOr<FileImage> Load(const std::string& path, bool map,
                                  uint64_t offset, size_t max_bytes);
  void Release();

  unsigned char* data_ = nullptr;
  size_t size_ = 0;
  bool mapped_ = false;
  std::align_val_t alignment_{kAlignment};
};

}  // namespace swim

#endif  // SWIM_COMMON_FILE_IMAGE_H_
