#include "trace/columnar.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>
#include <functional>
#include <iterator>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/checksum.h"
#include "common/file_image.h"
#include "common/huge_pages.h"
#include "common/parallel.h"
#include "common/string_util.h"

#include <unistd.h>

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
  const JobColumns c = trace.columns();
  const StringInterner& names = trace.names();
  const StringInterner& paths = trace.paths();
  const TraceMetadata& meta = trace.metadata();
  const size_t n = c.size;

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

  auto copy_section = [&](Stf1SectionKind kind, const void* data,
                          size_t bytes) {
    if (bytes > 0) {
      std::memcpy(base + payload_offsets[static_cast<size_t>(kind)], data,
                  bytes);
    }
  };
  // The job columns, in section order: one copy each.
  const void* job_columns[] = {
      c.job_id,         c.submit_time,      c.duration,
      c.input_bytes,    c.shuffle_bytes,    c.output_bytes,
      c.map_tasks,      c.reduce_tasks,     c.map_task_seconds,
      c.reduce_task_seconds, c.name_id,     c.input_path_id,
      c.output_path_id};
  for (size_t kind = 0; kind < std::size(job_columns); ++kind) {
    copy_section(static_cast<Stf1SectionKind>(kind), job_columns[kind],
                 payload_bytes[kind]);
  }
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
  // One fsync for the whole file: the encoding was a single buffered
  // stream, so a crash leaves either the old file or a complete new one.
  if (fsync(fileno(out)) != 0) {
    std::fclose(out);
    return IoError("fsync failed: " + path);
  }
  if (std::fclose(out) != 0) return IoError("close failed: " + path);
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// View
// ---------------------------------------------------------------------------

StatusOr<ColumnarTraceView> ColumnarTraceView::Open(
    const std::string& path, const ColumnarOptions& options) {
  ColumnarTraceView view;
  SWIM_ASSIGN_OR_RETURN(view.image_, options.allow_mmap
                                         ? FileImage::Map(path)
                                         : FileImage::Read(path));
  SWIM_RETURN_IF_ERROR(view.Init());
  return view;
}

StatusOr<ColumnarTraceView> ColumnarTraceView::FromBytes(
    std::string_view bytes) {
  // Copy into an aligned buffer: callers hand arbitrary strings and the
  // column views require kStf1Alignment.
  ColumnarTraceView view;
  view.image_ = FileImage::Allocate(bytes.size());
  if (!bytes.empty()) {
    std::memcpy(view.image_.mutable_data(), bytes.data(), bytes.size());
  }
  SWIM_RETURN_IF_ERROR(view.Init());
  return view;
}

Status ColumnarTraceView::Init() {
  const unsigned char* data = image_.data();
  const size_t size = image_.size();
  if (size == 0) return CorruptError("empty file");
  if (size < sizeof(Stf1Header)) {
    return CorruptError("truncated: " + std::to_string(size) +
                        " bytes, need a 64-byte header");
  }
  Stf1Header header;
  std::memcpy(&header, data, sizeof(header));
  if (header.magic != kStf1Magic) {
    return CorruptError("bad magic (not an STF1 trace)");
  }
  if (Checksum64(data, offsetof(Stf1Header, header_checksum)) !=
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
  if (header.machines < 0) {
    return CorruptError("negative machines " +
                        std::to_string(header.machines));
  }
  if (header.year < 0) {
    return CorruptError("negative year " + std::to_string(header.year));
  }
  if (header.table_offset % kStf1Alignment != 0 ||
      header.table_offset > size ||
      header.table_bytes != kStf1SectionCount * sizeof(Stf1Section) ||
      header.table_bytes > size - header.table_offset) {
    return CorruptError("section table out of bounds");
  }
  const unsigned char* table = data + header.table_offset;
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
    if (entry.offset % kStf1Alignment != 0 || entry.offset > size ||
        entry.bytes > size - entry.offset) {
      return CorruptError(std::string("section ") + name + " out of bounds");
    }
    if (IsJobColumn(entry.kind) &&
        (entry.bytes % entry.element_size != 0 ||
         entry.bytes / entry.element_size != header.job_count)) {
      return CorruptError(std::string("section ") + name +
                          " does not match the job count");
    }
    sections_[entry.kind] = data + entry.offset;
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
  // Points `field` at section `kind` of the image.
  auto point = [&](auto& field, Stf1SectionKind kind) {
    field = reinterpret_cast<std::remove_reference_t<decltype(field)>>(
        SectionData(kind));
  };
  JobColumns c;
  c.size = job_count_;
  point(c.job_id, Stf1SectionKind::kJobId);
  point(c.submit_time, Stf1SectionKind::kSubmitTime);
  point(c.duration, Stf1SectionKind::kDuration);
  point(c.input_bytes, Stf1SectionKind::kInputBytes);
  point(c.shuffle_bytes, Stf1SectionKind::kShuffleBytes);
  point(c.output_bytes, Stf1SectionKind::kOutputBytes);
  point(c.map_tasks, Stf1SectionKind::kMapTasks);
  point(c.reduce_tasks, Stf1SectionKind::kReduceTasks);
  point(c.map_task_seconds, Stf1SectionKind::kMapTaskSeconds);
  point(c.reduce_task_seconds, Stf1SectionKind::kReduceTaskSeconds);
  point(c.name_id, Stf1SectionKind::kNameIds);
  point(c.input_path_id, Stf1SectionKind::kInputPathIds);
  point(c.output_path_id, Stf1SectionKind::kOutputPathIds);
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

StatusOr<Trace> ColumnarTraceView::Materialize(int /*unused*/) const {
  SWIM_RETURN_IF_ERROR(ValidateRows());
  // The dictionaries are interned while the columns are copied; the path
  // dictionary is the long pole. Everything is allocated here, so the
  // workers only fill it.
  const JobColumns view = this->columns();
  StringInterner names;
  StringInterner paths;
  names.Reserve(view.names.size());
  paths.Reserve(view.paths.size());
  std::vector<uint32_t> name_ids;
  std::vector<uint32_t> path_ids;
  std::vector<std::function<void()>> tasks = {
      [&] { path_ids = InternAll(view.paths, paths); },
      [&] { name_ids = InternAll(view.names, names); },
  };
  TraceColumns columns;
  size_t kind = 0;
  columns.ForEach([&](auto& column) {
    using T = typename std::remove_reference_t<decltype(column)>::value_type;
    const T* first = reinterpret_cast<const T*>(
        SectionData(static_cast<Stf1SectionKind>(kind++)));
    ReserveHugePages(column, job_count_);
    tasks.push_back([&column, first, n = job_count_] {
      column.assign(first, first + n);
    });
  });
  RunConcurrently(tasks);
  // The file's ids are the trace's when its dictionaries are canonical
  // (every entry non-empty and distinct, as in every file a trace writes);
  // the Trace constructor checks the rest of the canonical form.
  auto remap = [](const std::vector<uint32_t>& table,
                  std::vector<uint32_t>& ids) {
    for (uint32_t id = 0; id < table.size(); ++id) {
      if (table[id] != id) return RemapIds(table, ids.data(), ids.size());
    }
  };
  remap(name_ids, columns.name_id);
  remap(path_ids, columns.input_path_id);
  remap(path_ids, columns.output_path_id);
  return Trace(metadata_, std::move(columns), std::move(names),
               std::move(paths));
}

namespace {

/// The STF1 load: checksums per `options`, then the validated trace.
StatusOr<Trace> LoadFromView(const ColumnarTraceView& view,
                             const ColumnarOptions& options) {
  if (options.verify_checksums) {
    SWIM_RETURN_IF_ERROR(view.VerifyChecksums());
  }
  return view.Materialize();
}

}  // namespace

StatusOr<Trace> TraceFromColumnarBytes(std::string_view bytes,
                                       const ColumnarOptions& options) {
  SWIM_ASSIGN_OR_RETURN(ColumnarTraceView view,
                        ColumnarTraceView::FromBytes(bytes));
  return LoadFromView(view, options);
}

StatusOr<Trace> LoadTraceColumnar(const std::string& path,
                                  const ColumnarOptions& options) {
  SWIM_ASSIGN_OR_RETURN(ColumnarTraceView view,
                        ColumnarTraceView::Open(path, options));
  return LoadFromView(view, options);
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
  uint32_t magic = 0;
  SWIM_ASSIGN_OR_RETURN(FileImage head,
                        FileImage::Read(path, 0, sizeof(magic)));
  if (head.size() == 0) {
    // An empty file is neither format; classifying it as CSV would defer
    // to the row parser's less specific "missing header" diagnostic.
    return InvalidArgumentError("empty trace file: " + path);
  }
  if (head.size() < sizeof(magic)) return TraceFormat::kCsv;
  std::memcpy(&magic, head.data(), sizeof(magic));
  return magic == kStf1Magic ? TraceFormat::kStf1 : TraceFormat::kCsv;
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
