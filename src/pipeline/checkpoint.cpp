#include "pipeline/checkpoint.h"

#include <fstream>
#include <utility>
#include <variant>

#include "base/json.h"

namespace mcrt {

namespace {

constexpr const char* kManifestSchema = "mcrt-bulk-manifest/2";

/// One record line: the job record's compact JSON plus a newline.
void write_line(std::FILE* file, const Json& record) {
  const std::string line = record.write() + "\n";
  std::fwrite(line.data(), 1, line.size(), file);
  // Flush per line: the manifest is the crash-recovery journal, an
  // unflushed record is a job re-run on resume.
  std::fflush(file);
}

std::optional<Json> parse_line(const std::string& line) {
  auto parsed = Json::parse(line);
  if (Json* json = std::get_if<Json>(&parsed)) return std::move(*json);
  return std::nullopt;
}

}  // namespace

bool ManifestWriter::open(const std::string& path, const std::string& script,
                          bool append) {
  close();
  const std::lock_guard<std::mutex> lock(mutex_);
  file_ = std::fopen(path.c_str(), append ? "a+b" : "wb");
  if (file_ == nullptr) return false;
  if (append) {
    // A batch killed mid-write leaves a trailing fragment without its
    // newline; end it first, or the next record would be glued onto it
    // and lost with it.
    const bool fragment =
        std::fseek(file_, -1, SEEK_END) == 0 && std::fgetc(file_) != '\n';
    std::fseek(file_, 0, SEEK_END);  // a read must not run into a write
    if (fragment) std::fputc('\n', file_);
  } else {
    Json header = Json::object();
    header.set("schema", kManifestSchema);
    header.set("script", script);
    write_line(file_, header);
  }
  return true;
}

void ManifestWriter::record(const BulkJobResult& result) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (file_ != nullptr) write_line(file_, job_to_json(result));
}

void ManifestWriter::close() {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

std::optional<ManifestData> load_manifest(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::string line;
  if (!std::getline(in, line)) return std::nullopt;
  const std::optional<Json> header = parse_line(line);
  if (!header || header->at("schema").as_string() != kManifestSchema) {
    return std::nullopt;
  }

  ManifestData data;
  data.script = header->at("script").as_string();
  while (std::getline(in, line)) {
    // A line interrupted mid-write (SIGKILL) is not a whole JSON document
    // and is dropped; every preceding line was flushed whole.
    const std::optional<Json> json = parse_line(line);
    if (!json) continue;
    if (std::optional<BulkJobResult> record = job_from_json(*json)) {
      record->resumed = true;
      std::string name = record->name;
      data.completed.insert_or_assign(std::move(name), std::move(*record));
    }
  }
  return data;
}

}  // namespace mcrt
