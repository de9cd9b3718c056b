#include "trace/columnar.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>
#include <utility>
#include <vector>

#include "common/checksum.h"
#include "common/flat_hash.h"
#include "common/string_util.h"

#if defined(__unix__) || defined(__APPLE__)
#define SWIM_COLUMNAR_HAS_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace swim::trace {

// The format is defined little-endian and the encoder/decoder memcpy scalar
// columns directly; a big-endian port would need byte-swapping shims here.
static_assert(std::endian::native == std::endian::little,
              "STF1 encode/decode assumes a little-endian host");

namespace {

constexpr uint32_t kFlagHasNames = 1u << 0;
constexpr uint32_t kFlagHasInputPaths = 1u << 1;
constexpr uint32_t kFlagHasOutputPaths = 1u << 2;

constexpr size_t Align(size_t offset) {
  return (offset + kStf1Alignment - 1) & ~(kStf1Alignment - 1);
}

/// Element width of each section's payload, indexed by Stf1SectionKind.
constexpr uint32_t kElementSize[kStf1SectionCount] = {
    8, 8, 8, 8, 8, 8, 8, 8, 8, 8,  // numeric job columns
    4, 4, 4,                       // dictionary-id columns
    8, 1, 8, 1,                    // name dict offsets/blob, path dict offsets/blob
    1,                             // trace name
};

/// Sections whose payload is exactly job_count * element_size bytes.
constexpr bool IsJobColumn(size_t kind) { return kind <= 12; }

Status CorruptError(const std::string& what) {
  return InvalidArgumentError("corrupt STF1 file: " + what);
}

/// Validates one persisted dictionary (offsets array + blob) and returns
/// the entry count. Offsets must start at 0, be nondecreasing, and end at
/// the blob size, so every id maps to a well-defined byte range.
StatusOr<size_t> ValidateDictionary(const unsigned char* offsets_data,
                                    size_t offsets_bytes,
                                    size_t blob_bytes, const char* which) {
  if (offsets_bytes < sizeof(uint64_t) ||
      offsets_bytes % sizeof(uint64_t) != 0) {
    return CorruptError(std::string(which) + " dictionary offsets malformed");
  }
  const size_t count = offsets_bytes / sizeof(uint64_t) - 1;
  if (count >= kNoStringId) {
    return CorruptError(std::string(which) + " dictionary too large");
  }
  const uint64_t* offsets = reinterpret_cast<const uint64_t*>(offsets_data);
  if (offsets[0] != 0 || offsets[count] != blob_bytes) {
    return CorruptError(std::string(which) +
                        " dictionary offsets do not bracket the blob");
  }
  for (size_t i = 0; i < count; ++i) {
    if (offsets[i] > offsets[i + 1]) {
      return CorruptError(std::string(which) +
                          " dictionary offsets not monotone");
    }
  }
  return count;
}

}  // namespace

const char* Stf1SectionKindName(Stf1SectionKind kind) {
  switch (kind) {
    case Stf1SectionKind::kJobId: return "job_id";
    case Stf1SectionKind::kSubmitTime: return "submit_time";
    case Stf1SectionKind::kDuration: return "duration";
    case Stf1SectionKind::kInputBytes: return "input_bytes";
    case Stf1SectionKind::kShuffleBytes: return "shuffle_bytes";
    case Stf1SectionKind::kOutputBytes: return "output_bytes";
    case Stf1SectionKind::kMapTasks: return "map_tasks";
    case Stf1SectionKind::kReduceTasks: return "reduce_tasks";
    case Stf1SectionKind::kMapTaskSeconds: return "map_task_seconds";
    case Stf1SectionKind::kReduceTaskSeconds: return "reduce_task_seconds";
    case Stf1SectionKind::kNameIds: return "name_ids";
    case Stf1SectionKind::kInputPathIds: return "input_path_ids";
    case Stf1SectionKind::kOutputPathIds: return "output_path_ids";
    case Stf1SectionKind::kNameDictOffsets: return "name_dict_offsets";
    case Stf1SectionKind::kNameDictBlob: return "name_dict_blob";
    case Stf1SectionKind::kPathDictOffsets: return "path_dict_offsets";
    case Stf1SectionKind::kPathDictBlob: return "path_dict_blob";
    case Stf1SectionKind::kTraceName: return "trace_name";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

std::string TraceToColumnarBytes(const Trace& trace) {
  // Touch the id accessors first: they sort the job stream and build the
  // canonical first-appearance indexes, so everything below reads one
  // consistent snapshot.
  const std::vector<uint32_t>& input_ids = trace.input_path_ids();
  const std::vector<uint32_t>& output_ids = trace.output_path_ids();
  const std::vector<uint32_t>& name_ids = trace.name_ids();
  const StringInterner& paths = trace.path_interner();
  const StringInterner& names = trace.name_interner();
  const std::vector<JobRecord>& jobs = trace.jobs();
  const TraceMetadata& meta = trace.metadata();
  const size_t n = jobs.size();

  // Dictionary offsets: entry i's bytes live at blob[offsets[i],
  // offsets[i+1]) — (count + 1) entries bracket the whole blob.
  auto dict_offsets = [](const StringInterner& interner) {
    std::vector<uint64_t> offsets(interner.size() + 1);
    uint64_t pos = 0;
    for (size_t i = 0; i < interner.size(); ++i) {
      offsets[i] = pos;
      pos += interner.NameOf(static_cast<uint32_t>(i)).size();
    }
    offsets[interner.size()] = pos;
    return offsets;
  };
  const std::vector<uint64_t> name_offsets = dict_offsets(names);
  const std::vector<uint64_t> path_offsets = dict_offsets(paths);

  size_t payload_bytes[kStf1SectionCount];
  for (size_t kind = 0; kind < kStf1SectionCount; ++kind) {
    if (IsJobColumn(kind)) payload_bytes[kind] = n * kElementSize[kind];
  }
  payload_bytes[static_cast<size_t>(Stf1SectionKind::kNameDictOffsets)] =
      name_offsets.size() * sizeof(uint64_t);
  payload_bytes[static_cast<size_t>(Stf1SectionKind::kNameDictBlob)] =
      name_offsets.back();
  payload_bytes[static_cast<size_t>(Stf1SectionKind::kPathDictOffsets)] =
      path_offsets.size() * sizeof(uint64_t);
  payload_bytes[static_cast<size_t>(Stf1SectionKind::kPathDictBlob)] =
      path_offsets.back();
  payload_bytes[static_cast<size_t>(Stf1SectionKind::kTraceName)] =
      meta.name.size();

  const size_t table_offset = sizeof(Stf1Header);
  const size_t table_bytes = kStf1SectionCount * sizeof(Stf1Section);
  size_t payload_offsets[kStf1SectionCount];
  size_t pos = Align(table_offset + table_bytes);
  for (size_t kind = 0; kind < kStf1SectionCount; ++kind) {
    payload_offsets[kind] = pos;
    pos = Align(pos + payload_bytes[kind]);
  }
  std::string out(pos, '\0');
  char* const base = out.data();

  // Numeric columns: one pass over the job stream, field stores compiled
  // from memcpy (the buffer is only 16-aligned, so no typed pointers).
  {
    char* job_id = base + payload_offsets[0];
    char* submit = base + payload_offsets[1];
    char* duration = base + payload_offsets[2];
    char* in_bytes = base + payload_offsets[3];
    char* shuffle = base + payload_offsets[4];
    char* out_bytes = base + payload_offsets[5];
    char* map_tasks = base + payload_offsets[6];
    char* reduce_tasks = base + payload_offsets[7];
    char* map_secs = base + payload_offsets[8];
    char* reduce_secs = base + payload_offsets[9];
    for (size_t i = 0; i < n; ++i) {
      const JobRecord& job = jobs[i];
      std::memcpy(job_id + i * 8, &job.job_id, 8);
      std::memcpy(submit + i * 8, &job.submit_time, 8);
      std::memcpy(duration + i * 8, &job.duration, 8);
      std::memcpy(in_bytes + i * 8, &job.input_bytes, 8);
      std::memcpy(shuffle + i * 8, &job.shuffle_bytes, 8);
      std::memcpy(out_bytes + i * 8, &job.output_bytes, 8);
      std::memcpy(map_tasks + i * 8, &job.map_tasks, 8);
      std::memcpy(reduce_tasks + i * 8, &job.reduce_tasks, 8);
      std::memcpy(map_secs + i * 8, &job.map_task_seconds, 8);
      std::memcpy(reduce_secs + i * 8, &job.reduce_task_seconds, 8);
    }
  }
  auto copy_section = [&](Stf1SectionKind kind, const void* data,
                          size_t bytes) {
    if (bytes > 0) {
      std::memcpy(base + payload_offsets[static_cast<size_t>(kind)], data,
                  bytes);
    }
  };
  copy_section(Stf1SectionKind::kNameIds, name_ids.data(), n * 4);
  copy_section(Stf1SectionKind::kInputPathIds, input_ids.data(), n * 4);
  copy_section(Stf1SectionKind::kOutputPathIds, output_ids.data(), n * 4);
  copy_section(Stf1SectionKind::kNameDictOffsets, name_offsets.data(),
               name_offsets.size() * sizeof(uint64_t));
  copy_section(Stf1SectionKind::kPathDictOffsets, path_offsets.data(),
               path_offsets.size() * sizeof(uint64_t));
  auto copy_blob = [&](Stf1SectionKind kind, const StringInterner& interner) {
    char* blob = base + payload_offsets[static_cast<size_t>(kind)];
    size_t written = 0;
    for (size_t i = 0; i < interner.size(); ++i) {
      std::string_view text = interner.NameOf(static_cast<uint32_t>(i));
      std::memcpy(blob + written, text.data(), text.size());
      written += text.size();
    }
  };
  copy_blob(Stf1SectionKind::kNameDictBlob, names);
  copy_blob(Stf1SectionKind::kPathDictBlob, paths);
  copy_section(Stf1SectionKind::kTraceName, meta.name.data(),
               meta.name.size());

  for (size_t kind = 0; kind < kStf1SectionCount; ++kind) {
    Stf1Section entry;
    entry.kind = static_cast<uint32_t>(kind);
    entry.element_size = kElementSize[kind];
    entry.offset = payload_offsets[kind];
    entry.bytes = payload_bytes[kind];
    entry.checksum =
        Checksum64(base + payload_offsets[kind], payload_bytes[kind]);
    std::memcpy(base + table_offset + kind * sizeof(Stf1Section), &entry,
                sizeof(entry));
  }

  Stf1Header header;
  header.job_count = n;
  header.flags = (meta.has_names ? kFlagHasNames : 0) |
                 (meta.has_input_paths ? kFlagHasInputPaths : 0) |
                 (meta.has_output_paths ? kFlagHasOutputPaths : 0);
  header.machines = meta.machines;
  header.year = meta.year;
  header.table_offset = table_offset;
  header.table_bytes = table_bytes;
  header.table_checksum = Checksum64(base + table_offset, table_bytes);
  std::memcpy(base, &header, offsetof(Stf1Header, header_checksum));
  header.header_checksum =
      Checksum64(base, offsetof(Stf1Header, header_checksum));
  std::memcpy(base, &header, sizeof(header));
  return out;
}

Status WriteTraceColumnar(const Trace& trace, const std::string& path) {
  const std::string bytes = TraceToColumnarBytes(trace);
  std::FILE* out = std::fopen(path.c_str(), "wb");
  if (!out) return IoError("cannot open for writing: " + path);
  if (std::fwrite(bytes.data(), 1, bytes.size(), out) != bytes.size()) {
    std::fclose(out);
    return IoError("write failed: " + path);
  }
  if (std::fflush(out) != 0) {
    std::fclose(out);
    return IoError("flush failed: " + path);
  }
#if defined(SWIM_COLUMNAR_HAS_MMAP)
  // One fsync for the whole file: the encoding was a single buffered
  // stream, so a crash leaves either the old file or a complete new one.
  if (fsync(fileno(out)) != 0) {
    std::fclose(out);
    return IoError("fsync failed: " + path);
  }
#endif
  if (std::fclose(out) != 0) return IoError("close failed: " + path);
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// View
// ---------------------------------------------------------------------------

void ColumnarTraceView::AlignedFree::operator()(unsigned char* p) const {
  ::operator delete[](p, alignment);
}

ColumnarTraceView::Buffer ColumnarTraceView::AllocateBuffer(size_t size) {
  constexpr size_t kHugePage = size_t{2} << 20;
  const std::align_val_t alignment{size >= kHugePage ? kHugePage
                                                     : kStf1Alignment};
  Buffer buffer(static_cast<unsigned char*>(::operator new[](size, alignment)),
                AlignedFree{alignment});
#if defined(SWIM_COLUMNAR_HAS_MMAP) && defined(MADV_HUGEPAGE)
  // Advisory only: without huge pages the buffer works the same, slower.
  if (size >= kHugePage) madvise(buffer.get(), size, MADV_HUGEPAGE);
#endif
  return buffer;
}

ColumnarTraceView::~ColumnarTraceView() {
#if defined(SWIM_COLUMNAR_HAS_MMAP)
  if (mapped_ && data_ != nullptr) {
    munmap(const_cast<unsigned char*>(data_), size_);
  }
#endif
}

ColumnarTraceView::ColumnarTraceView(ColumnarTraceView&& other) noexcept
    : data_(other.data_),
      size_(other.size_),
      mapped_(other.mapped_),
      owned_(std::move(other.owned_)),
      metadata_(std::move(other.metadata_)),
      job_count_(other.job_count_),
      name_count_(other.name_count_),
      path_count_(other.path_count_),
      sections_(other.sections_),
      section_bytes_(other.section_bytes_),
      section_checksums_(other.section_checksums_) {
  other.data_ = nullptr;
  other.size_ = 0;
  other.mapped_ = false;
}

ColumnarTraceView& ColumnarTraceView::operator=(
    ColumnarTraceView&& other) noexcept {
  if (this == &other) return *this;
#if defined(SWIM_COLUMNAR_HAS_MMAP)
  if (mapped_ && data_ != nullptr) {
    munmap(const_cast<unsigned char*>(data_), size_);
  }
#endif
  data_ = other.data_;
  size_ = other.size_;
  mapped_ = other.mapped_;
  owned_ = std::move(other.owned_);
  metadata_ = std::move(other.metadata_);
  job_count_ = other.job_count_;
  name_count_ = other.name_count_;
  path_count_ = other.path_count_;
  sections_ = other.sections_;
  section_bytes_ = other.section_bytes_;
  section_checksums_ = other.section_checksums_;
  other.data_ = nullptr;
  other.size_ = 0;
  other.mapped_ = false;
  return *this;
}

StatusOr<ColumnarTraceView> ColumnarTraceView::Open(
    const std::string& path, const ColumnarOptions& options) {
  ColumnarTraceView view;
#if defined(SWIM_COLUMNAR_HAS_MMAP)
  if (options.allow_mmap) {
    int fd = open(path.c_str(), O_RDONLY);
    if (fd < 0) return IoError("cannot open for reading: " + path);
    struct stat st;
    if (fstat(fd, &st) != 0) {
      close(fd);
      return IoError("cannot stat: " + path);
    }
    const size_t size = static_cast<size_t>(st.st_size);
    if (size > 0) {
      void* mapping = mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
      close(fd);
      if (mapping != MAP_FAILED) {
        view.data_ = static_cast<const unsigned char*>(mapping);
        view.size_ = size;
        view.mapped_ = true;
        Status status = view.Init();
        if (!status.ok()) return status;
        return view;
      }
      // mmap refused (unusual filesystem, resource limit): fall through to
      // the buffered read below, which yields an identical view.
    } else {
      close(fd);
      return CorruptError("empty file");
    }
  }
#endif
  std::FILE* in = std::fopen(path.c_str(), "rb");
  if (!in) return IoError("cannot open for reading: " + path);
  if (std::fseek(in, 0, SEEK_END) != 0) {
    std::fclose(in);
    return IoError("cannot seek: " + path);
  }
  const long end = std::ftell(in);
  if (end < 0) {
    std::fclose(in);
    return IoError("cannot tell: " + path);
  }
  std::rewind(in);
  const size_t size = static_cast<size_t>(end);
  if (size == 0) {
    std::fclose(in);
    return CorruptError("empty file");
  }
  Buffer buffer = AllocateBuffer(size);
  if (std::fread(buffer.get(), 1, size, in) != size) {
    std::fclose(in);
    return IoError("read failed: " + path);
  }
  std::fclose(in);
  view.data_ = buffer.get();
  view.size_ = size;
  view.mapped_ = false;
  view.owned_ = std::move(buffer);
  Status status = view.Init();
  if (!status.ok()) return status;
  return view;
}

StatusOr<ColumnarTraceView> ColumnarTraceView::FromBytes(
    std::string_view bytes) {
  if (bytes.empty()) return CorruptError("empty file");
  // Copy into an aligned buffer: callers hand arbitrary strings and the
  // column views require kStf1Alignment.
  Buffer buffer = AllocateBuffer(bytes.size());
  std::memcpy(buffer.get(), bytes.data(), bytes.size());
  ColumnarTraceView view;
  view.data_ = buffer.get();
  view.size_ = bytes.size();
  view.mapped_ = false;
  view.owned_ = std::move(buffer);
  Status status = view.Init();
  if (!status.ok()) return status;
  return view;
}

Status ColumnarTraceView::Init() {
  if (size_ < sizeof(Stf1Header)) {
    return CorruptError("truncated: " + std::to_string(size_) +
                        " bytes, need a 64-byte header");
  }
  Stf1Header header;
  std::memcpy(&header, data_, sizeof(header));
  if (header.magic != kStf1Magic) {
    return CorruptError("bad magic (not an STF1 trace)");
  }
  if (Checksum64(data_, offsetof(Stf1Header, header_checksum)) !=
      header.header_checksum) {
    return CorruptError("header checksum mismatch");
  }
  if (header.version != kStf1Version) {
    return CorruptError("unsupported version " +
                        std::to_string(header.version) +
                        " (reader supports " + std::to_string(kStf1Version) +
                        ")");
  }
  if (header.section_count != kStf1SectionCount) {
    return CorruptError("unexpected section count " +
                        std::to_string(header.section_count));
  }
  if (header.table_offset % kStf1Alignment != 0 ||
      header.table_offset > size_ ||
      header.table_bytes != kStf1SectionCount * sizeof(Stf1Section) ||
      header.table_bytes > size_ - header.table_offset) {
    return CorruptError("section table out of bounds");
  }
  const unsigned char* table = data_ + header.table_offset;
  if (Checksum64(table, header.table_bytes) != header.table_checksum) {
    return CorruptError("section table checksum mismatch");
  }

  bool seen[kStf1SectionCount] = {};
  for (size_t i = 0; i < kStf1SectionCount; ++i) {
    Stf1Section entry;
    std::memcpy(&entry, table + i * sizeof(entry), sizeof(entry));
    if (entry.kind >= kStf1SectionCount) {
      return CorruptError("unknown section kind " +
                          std::to_string(entry.kind));
    }
    const char* name =
        Stf1SectionKindName(static_cast<Stf1SectionKind>(entry.kind));
    if (seen[entry.kind]) {
      return CorruptError(std::string("duplicate section ") + name);
    }
    seen[entry.kind] = true;
    if (entry.element_size != kElementSize[entry.kind]) {
      return CorruptError(std::string("wrong element size for section ") +
                          name);
    }
    if (entry.offset % kStf1Alignment != 0 || entry.offset > size_ ||
        entry.bytes > size_ - entry.offset) {
      return CorruptError(std::string("section ") + name + " out of bounds");
    }
    if (IsJobColumn(entry.kind) &&
        (entry.bytes % entry.element_size != 0 ||
         entry.bytes / entry.element_size != header.job_count)) {
      return CorruptError(std::string("section ") + name +
                          " does not match the job count");
    }
    sections_[entry.kind] = data_ + entry.offset;
    section_bytes_[entry.kind] = entry.bytes;
    section_checksums_[entry.kind] = entry.checksum;
  }
  for (size_t kind = 0; kind < kStf1SectionCount; ++kind) {
    if (!seen[kind]) {
      return CorruptError(
          std::string("missing section ") +
          Stf1SectionKindName(static_cast<Stf1SectionKind>(kind)));
    }
  }

  SWIM_ASSIGN_OR_RETURN(
      name_count_,
      ValidateDictionary(SectionData(Stf1SectionKind::kNameDictOffsets),
                         SectionBytes(Stf1SectionKind::kNameDictOffsets),
                         SectionBytes(Stf1SectionKind::kNameDictBlob),
                         "name"));
  SWIM_ASSIGN_OR_RETURN(
      path_count_,
      ValidateDictionary(SectionData(Stf1SectionKind::kPathDictOffsets),
                         SectionBytes(Stf1SectionKind::kPathDictOffsets),
                         SectionBytes(Stf1SectionKind::kPathDictBlob),
                         "path"));

  job_count_ = header.job_count;
  metadata_.name.assign(
      reinterpret_cast<const char*>(SectionData(Stf1SectionKind::kTraceName)),
      SectionBytes(Stf1SectionKind::kTraceName));
  metadata_.machines = header.machines;
  metadata_.year = header.year;
  metadata_.has_names = (header.flags & kFlagHasNames) != 0;
  metadata_.has_input_paths = (header.flags & kFlagHasInputPaths) != 0;
  metadata_.has_output_paths = (header.flags & kFlagHasOutputPaths) != 0;
  return Status::Ok();
}

#define SWIM_COLUMN_ACCESSOR(method, kind, type)                       \
  Span<const type> ColumnarTraceView::method() const {                 \
    return Span<const type>(                                           \
        reinterpret_cast<const type*>(SectionData(Stf1SectionKind::kind)), \
        job_count_);                                                   \
  }

SWIM_COLUMN_ACCESSOR(job_ids, kJobId, uint64_t)
SWIM_COLUMN_ACCESSOR(submit_times, kSubmitTime, double)
SWIM_COLUMN_ACCESSOR(durations, kDuration, double)
SWIM_COLUMN_ACCESSOR(input_bytes, kInputBytes, double)
SWIM_COLUMN_ACCESSOR(shuffle_bytes, kShuffleBytes, double)
SWIM_COLUMN_ACCESSOR(output_bytes, kOutputBytes, double)
SWIM_COLUMN_ACCESSOR(map_tasks, kMapTasks, int64_t)
SWIM_COLUMN_ACCESSOR(reduce_tasks, kReduceTasks, int64_t)
SWIM_COLUMN_ACCESSOR(map_task_seconds, kMapTaskSeconds, double)
SWIM_COLUMN_ACCESSOR(reduce_task_seconds, kReduceTaskSeconds, double)
SWIM_COLUMN_ACCESSOR(name_ids, kNameIds, uint32_t)
SWIM_COLUMN_ACCESSOR(input_path_ids, kInputPathIds, uint32_t)
SWIM_COLUMN_ACCESSOR(output_path_ids, kOutputPathIds, uint32_t)

#undef SWIM_COLUMN_ACCESSOR

std::string_view ColumnarTraceView::NameAt(uint32_t id) const {
  const uint64_t* offsets = reinterpret_cast<const uint64_t*>(
      SectionData(Stf1SectionKind::kNameDictOffsets));
  const char* blob = reinterpret_cast<const char*>(
      SectionData(Stf1SectionKind::kNameDictBlob));
  return std::string_view(blob + offsets[id],
                          offsets[id + 1] - offsets[id]);
}

std::string_view ColumnarTraceView::PathAt(uint32_t id) const {
  const uint64_t* offsets = reinterpret_cast<const uint64_t*>(
      SectionData(Stf1SectionKind::kPathDictOffsets));
  const char* blob = reinterpret_cast<const char*>(
      SectionData(Stf1SectionKind::kPathDictBlob));
  return std::string_view(blob + offsets[id],
                          offsets[id + 1] - offsets[id]);
}

Status ColumnarTraceView::VerifyChecksums() const {
  for (size_t kind = 0; kind < kStf1SectionCount; ++kind) {
    if (Checksum64(sections_[kind], section_bytes_[kind]) !=
        section_checksums_[kind]) {
      return CorruptError(
          std::string("section ") +
          Stf1SectionKindName(static_cast<Stf1SectionKind>(kind)) +
          " checksum mismatch");
    }
  }
  return Status::Ok();
}

JobColumns ColumnarTraceView::columns() const {
  JobColumns c;
  c.size = job_count_;
  c.job_id = Column<uint64_t>(Stf1SectionKind::kJobId);
  c.submit_time = Column<double>(Stf1SectionKind::kSubmitTime);
  c.duration = Column<double>(Stf1SectionKind::kDuration);
  c.input_bytes = Column<double>(Stf1SectionKind::kInputBytes);
  c.shuffle_bytes = Column<double>(Stf1SectionKind::kShuffleBytes);
  c.output_bytes = Column<double>(Stf1SectionKind::kOutputBytes);
  c.map_tasks = Column<int64_t>(Stf1SectionKind::kMapTasks);
  c.reduce_tasks = Column<int64_t>(Stf1SectionKind::kReduceTasks);
  c.map_task_seconds = Column<double>(Stf1SectionKind::kMapTaskSeconds);
  c.reduce_task_seconds =
      Column<double>(Stf1SectionKind::kReduceTaskSeconds);
  c.name_id = Column<uint32_t>(Stf1SectionKind::kNameIds);
  c.input_path_id = Column<uint32_t>(Stf1SectionKind::kInputPathIds);
  c.output_path_id = Column<uint32_t>(Stf1SectionKind::kOutputPathIds);
  c.names = DictionaryView(
      reinterpret_cast<const uint64_t*>(
          SectionData(Stf1SectionKind::kNameDictOffsets)),
      reinterpret_cast<const char*>(
          SectionData(Stf1SectionKind::kNameDictBlob)),
      name_count_);
  c.paths = DictionaryView(
      reinterpret_cast<const uint64_t*>(
          SectionData(Stf1SectionKind::kPathDictOffsets)),
      reinterpret_cast<const char*>(
          SectionData(Stf1SectionKind::kPathDictBlob)),
      path_count_);
  return c;
}

Status ColumnarTraceView::ValidateRows() const {
  std::optional<RowViolation> bad =
      FindInvalidRow(columns(), 0, job_count_);
  if (bad.has_value()) {
    return CorruptError("row " + std::to_string(bad->row) + ": " + bad->what);
  }
  return Status::Ok();
}

bool ColumnarTraceView::IsCanonical() const {
  // The id columns can stand in for the trace's lazy indexes only when
  // they are exactly what the lazy build would produce: the job stream
  // sorted by submit time, ids in first-appearance order (input before
  // output per row), every dictionary entry referenced and non-empty, and
  // the dictionaries duplicate-free. Files we wrote always satisfy this.
  const Span<const double> submit = submit_times();
  const Span<const uint32_t> name_id = name_ids();
  const Span<const uint32_t> in_id = input_path_ids();
  const Span<const uint32_t> out_id = output_path_ids();
  uint32_t next_path = 0;
  uint32_t next_name = 0;
  auto canonical = [](uint32_t id, uint32_t* next) {
    if (id == *next) {
      ++(*next);
      return true;
    }
    return id < *next;
  };
  for (size_t i = 0; i < job_count_; ++i) {
    if (i > 0 && submit[i - 1] > submit[i]) return false;
    const uint32_t name = name_id[i];
    const uint32_t in_path = in_id[i];
    const uint32_t out_path = out_id[i];
    if (name != kNoStringId && !canonical(name, &next_name)) return false;
    if (in_path != kNoStringId && !canonical(in_path, &next_path)) {
      return false;
    }
    if (out_path != kNoStringId && !canonical(out_path, &next_path)) {
      return false;
    }
  }
  if (next_path != path_count_ || next_name != name_count_) return false;
  auto duplicate_free = [](const DictionaryView& dictionary) {
    FlatHashSet<std::string_view> seen;
    seen.reserve(dictionary.size());
    for (uint32_t id = 0; id < dictionary.size(); ++id) {
      const std::string_view entry = dictionary[id];
      if (entry.empty() || !seen.insert(entry).second) return false;
    }
    return true;
  };
  const JobColumns c = columns();
  return duplicate_free(c.paths) && duplicate_free(c.names);
}

StatusOr<Trace> ColumnarTraceView::Materialize(int /*unused*/) const {
  SWIM_RETURN_IF_ERROR(ValidateRows());
  Trace trace(metadata_);
  trace.SetJobs(BuildRows(columns()));
  return trace;
}

namespace {

/// The lazy STF1 load: checksums, one row-validation pass, the canonical
/// checks; then a trace over the view's own bytes, or for a non-canonical
/// file, rows that rebuild their indexes on demand.
StatusOr<Trace> LoadFromView(ColumnarTraceView view,
                             const ColumnarOptions& options) {
  if (options.verify_checksums) {
    SWIM_RETURN_IF_ERROR(view.VerifyChecksums());
  }
  SWIM_RETURN_IF_ERROR(view.ValidateRows());
  if (!view.IsCanonical()) return view.Materialize();
  return Trace::FromColumns(
      std::make_shared<const ColumnarTraceView>(std::move(view)));
}

}  // namespace

StatusOr<Trace> TraceFromColumnarBytes(std::string_view bytes,
                                       const ColumnarOptions& options) {
  SWIM_ASSIGN_OR_RETURN(ColumnarTraceView view,
                        ColumnarTraceView::FromBytes(bytes));
  return LoadFromView(std::move(view), options);
}

StatusOr<Trace> LoadTraceColumnar(const std::string& path,
                                  const ColumnarOptions& options) {
  // The trace outlives the call, so it must own its bytes: read them
  // rather than map them, and a later truncation or rewrite of the file
  // cannot reach the trace.
  ColumnarOptions read_options = options;
  read_options.allow_mmap = false;
  SWIM_ASSIGN_OR_RETURN(ColumnarTraceView view,
                        ColumnarTraceView::Open(path, read_options));
  return LoadFromView(std::move(view), options);
}

// ---------------------------------------------------------------------------
// Auto-sniffing
// ---------------------------------------------------------------------------

const char* TraceFormatName(TraceFormat format) {
  switch (format) {
    case TraceFormat::kCsv:
      return "csv";
    case TraceFormat::kStf1:
      return "stf1";
  }
  return "?";
}

StatusOr<TraceFormat> SniffTraceFormat(const std::string& path) {
  std::FILE* in = std::fopen(path.c_str(), "rb");
  if (!in) return IoError("cannot open for reading: " + path);
  uint32_t magic = 0;
  const size_t got = std::fread(&magic, 1, sizeof(magic), in);
  std::fclose(in);
  if (got == 0) {
    // An empty file is neither format; classifying it as CSV would defer
    // to the row parser's less specific "missing header" diagnostic.
    return InvalidArgumentError("empty trace file: " + path);
  }
  if (got == sizeof(magic) && magic == kStf1Magic) return TraceFormat::kStf1;
  return TraceFormat::kCsv;
}

StatusOr<Trace> ReadTraceAuto(const std::string& path,
                              const ParseOptions& parse_options,
                              ParseReport* report,
                              const ColumnarOptions& columnar_options) {
  SWIM_ASSIGN_OR_RETURN(TraceFormat format, SniffTraceFormat(path));
  if (format == TraceFormat::kCsv) {
    return ReadTraceCsv(path, parse_options, report);
  }
  SWIM_ASSIGN_OR_RETURN(Trace trace,
                        LoadTraceColumnar(path, columnar_options));
  if (report) {
    *report = ParseReport{};
    report->mode = parse_options.mode;
    report->total_rows = trace.size();
    report->accepted = trace.size();
  }
  return trace;
}

bool HasColumnarExtension(std::string_view path) {
  const std::string lower = ToLower(path);
  return EndsWith(lower, ".stf") || EndsWith(lower, ".stf1");
}

Status WriteTraceAuto(const Trace& trace, const std::string& path) {
  if (HasColumnarExtension(path)) return WriteTraceColumnar(trace, path);
  return WriteTraceCsv(trace, path);
}

}  // namespace swim::trace
