#include "rl0/serve/checkpointer.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <system_error>
#include <vector>

namespace rl0 {
namespace serve {

bool WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return static_cast<bool>(out);
}

Result<std::string> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::InvalidArgument("cannot open " + path);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  if (in.bad()) return Status::Internal("read failed: " + path);
  return bytes;
}

std::string CheckpointFileName(const std::string& dir, size_t index,
                               bool full) {
  char name[48];
  std::snprintf(name, sizeof(name), "ckpt-%06zu.%s", index,
                full ? "full" : "delta");
  return dir + "/" + name;
}

Result<LoadedChain> LoadCheckpointChain(const std::string& dir) {
  LoadedChain out;
  auto base = ReadFileBytes(CheckpointFileName(dir, 0, /*full=*/true));
  if (!base.ok()) return base.status();
  out.checkpoint = std::move(base).value();
  for (size_t i = 1;; ++i) {
    auto delta = ReadFileBytes(CheckpointFileName(dir, i, /*full=*/false));
    if (!delta.ok()) break;  // end of the chain
    std::string folded;
    const Status status =
        FoldPoolDelta(out.checkpoint, delta.value(), &folded);
    if (!status.ok()) {
      return Status::Internal("folding " +
                              CheckpointFileName(dir, i, false) + ": " +
                              status.ToString());
    }
    out.checkpoint = std::move(folded);
    ++out.deltas;
  }
  auto journal = ReadFileBytes(dir + "/journal.log");
  if (journal.ok()) {
    // Keep only the valid prefix: a torn tail must not be re-appended
    // to (the continuing writer would frame records after garbage).
    JournalContents contents;
    const Status status = ReadJournal(journal.value(), &contents);
    if (!status.ok()) {
      return Status::Internal("journal.log: " + status.ToString());
    }
    out.journal = journal.value().substr(0, contents.valid_bytes);
    out.journal_records = contents.records.size();
  }
  return out;
}

PoolCheckpointer::PoolCheckpointer(ShardedSwSamplerPool* pool,
                                   std::string dir, uint64_t every,
                                   size_t dim)
    : pool_(pool),
      dir_(std::move(dir)),
      every_(every),
      writer_(&journal_, dim),
      next_cut_(every) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);  // best-effort; the
  AttachJournal(pool_, &writer_);  // first Cut reports a bad dir
}

PoolCheckpointer::PoolCheckpointer(ShardedSwSamplerPool* pool,
                                   std::string dir, uint64_t every,
                                   size_t dim, LoadedChain chain)
    : pool_(pool),
      dir_(std::move(dir)),
      every_(every),
      journal_(std::move(chain.journal)),
      writer_(&journal_, dim, chain.journal_records),
      next_cut_(every) {
  AttachJournal(pool_, &writer_);
}

PoolCheckpointer::~PoolCheckpointer() {
  pool_->SetJournalSink(nullptr);
}

Status PoolCheckpointer::Rebase() {
  // The stale deltas chain against the pre-crash epoch; remove them
  // before the fresh full cut overwrites ckpt-000000.full, so a crash
  // mid-rebase can never leave a full base next to foreign deltas. Every
  // ckpt-*.delta goes, not just the run from 1 up: an earlier rebase cut
  // short after removing delta 1 leaves 2..k behind, which the new
  // chain's delta 1 would otherwise be followed by. Highest index first,
  // so an interrupted removal leaves a foldable prefix of the chain.
  std::vector<std::string> stale;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir_, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.size() > 11 && name.compare(0, 5, "ckpt-") == 0 &&
        name.compare(name.size() - 6, 6, ".delta") == 0) {
      stale.push_back(entry.path().string());
    }
  }
  std::sort(stale.rbegin(), stale.rend());
  for (const std::string& path : stale) std::filesystem::remove(path, ec);
  chain_.clear();
  cuts_ = 0;
  const Status status = Cut();  // full (chain_ empty), continuing seq
  if (!status.ok()) return status;
  if (every_ != 0) {
    // Resume the cadence from the recovered fed count — the rebase cut
    // just covered everything up to here.
    next_cut_ = every_;
    const uint64_t fed = pool_->points_fed();
    while (next_cut_ <= fed) next_cut_ += every_;
  }
  return Status::OK();
}

Status PoolCheckpointer::MaybeCut() {
  if (every_ == 0 || pool_->points_fed() < next_cut_) return Status::OK();
  while (pool_->points_fed() >= next_cut_) next_cut_ += every_;
  return Cut();
}

Status PoolCheckpointer::Cut() {
  pool_->Drain();
  const uint64_t seq = writer_.next_seq();
  std::string blob;
  const bool full = chain_.empty();
  Status status = full ? CheckpointPool(pool_, seq, &blob)
                       : CheckpointPoolDelta(pool_, chain_, seq, &blob);
  if (status.ok() && !full) {
    std::string folded;
    status = FoldPoolDelta(chain_, blob, &folded);
    if (status.ok()) chain_ = std::move(folded);
  } else if (status.ok()) {
    chain_ = blob;
  }
  if (!status.ok()) return status;
  if (!WriteFileBytes(CheckpointFileName(dir_, cuts_, full), blob) ||
      !WriteFileBytes(dir_ + "/journal.log", journal_)) {
    return Status::Internal("cannot write checkpoint files in '" + dir_ +
                            "'");
  }
  ++cuts_;
  return Status::OK();
}

}  // namespace serve
}  // namespace rl0
