#include "src/workload/workloads.h"

#include <algorithm>

#include "src/fsck/fsck.h"

namespace mufs {

namespace {

// Builds `bytes` of data where every 4 KB block starts with the fsck tag.
std::vector<uint8_t> MakeTaggedData(uint32_t ino, uint32_t generation, uint64_t bytes) {
  std::vector<uint8_t> data(bytes, 0x6d);
  for (uint64_t off = 0; off < bytes; off += kBlockSize) {
    if (bytes - off >= sizeof(DataBlockTag)) {
      TagDataBlock(data.data() + off, ino, generation);
    }
  }
  return data;
}

std::string JoinPath(const std::string& root, const std::string& rel) {
  return rel.empty() ? root : root + "/" + rel;
}

}  // namespace

Task<FsStatus> WriteTagged(Machine& m, Proc& proc, uint32_t ino, uint64_t bytes) {
  Result<StatInfo> st = co_await m.vfs().StatIno(proc, ino);
  if (!st.Ok()) {
    co_return st.status();
  }
  std::vector<uint8_t> data = MakeTaggedData(ino, st.value().generation, bytes);
  Result<uint64_t> w = co_await m.vfs().WriteFile(proc, ino, 0, data);
  co_return w.Ok() ? FsStatus::kOk : w.status();
}

Task<FsStatus> PopulateTree(Machine& m, Proc& proc, const TreeSpec& tree,
                            const std::string& root) {
  FsStatus s = co_await m.vfs().Mkdir(proc, root);
  if (s != FsStatus::kOk && s != FsStatus::kExists) {
    co_return s;
  }
  for (const auto& dir : tree.directories) {
    s = co_await m.vfs().Mkdir(proc, JoinPath(root, dir));
    if (s != FsStatus::kOk) {
      co_return s;
    }
  }
  for (const auto& f : tree.files) {
    Result<uint32_t> ino = co_await m.vfs().Create(proc, JoinPath(root, f.path));
    if (!ino.Ok()) {
      co_return ino.status();
    }
    s = co_await WriteTagged(m, proc, ino.value(), f.size);
    if (s != FsStatus::kOk) {
      co_return s;
    }
  }
  co_return FsStatus::kOk;
}

Task<FsStatus> CopyTree(Machine& m, Proc& proc, const TreeSpec& tree,
                        const std::string& src_root, const std::string& dst_root) {
  FsStatus s = co_await m.vfs().Mkdir(proc, dst_root);
  if (s != FsStatus::kOk && s != FsStatus::kExists) {
    co_return s;
  }
  for (const auto& dir : tree.directories) {
    s = co_await m.vfs().Mkdir(proc, JoinPath(dst_root, dir));
    if (s != FsStatus::kOk) {
      co_return s;
    }
  }
  std::vector<uint8_t> buffer;
  for (const auto& f : tree.files) {
    // Read the source file in full (cold reads hit the disk).
    Result<uint32_t> src = co_await m.vfs().Lookup(proc, JoinPath(src_root, f.path));
    if (!src.Ok()) {
      co_return src.status();
    }
    buffer.resize(f.size);
    Result<uint64_t> r = co_await m.vfs().ReadFile(proc, src.value(), 0, buffer);
    if (!r.Ok()) {
      co_return r.status();
    }
    Result<uint32_t> dst = co_await m.vfs().Create(proc, JoinPath(dst_root, f.path));
    if (!dst.Ok()) {
      co_return dst.status();
    }
    s = co_await WriteTagged(m, proc, dst.value(), f.size);
    if (s != FsStatus::kOk) {
      co_return s;
    }
  }
  co_return FsStatus::kOk;
}

Task<FsStatus> RemoveTree(Machine& m, Proc& proc, const TreeSpec& tree,
                          const std::string& root) {
  for (const auto& f : tree.files) {
    FsStatus s = co_await m.vfs().Unlink(proc, JoinPath(root, f.path));
    if (s != FsStatus::kOk) {
      co_return s;
    }
  }
  // Children were appended after parents; remove in reverse order.
  for (auto it = tree.directories.rbegin(); it != tree.directories.rend(); ++it) {
    FsStatus s = co_await m.vfs().Rmdir(proc, JoinPath(root, *it));
    if (s != FsStatus::kOk) {
      co_return s;
    }
  }
  co_return co_await m.vfs().Rmdir(proc, root);
}

Task<FsStatus> CreateFiles(Machine& m, Proc& proc, const std::string& dir, int count,
                           uint64_t file_bytes) {
  for (int i = 0; i < count; ++i) {
    Result<uint32_t> ino = co_await m.vfs().Create(proc, dir + "/c" + std::to_string(i));
    if (!ino.Ok()) {
      co_return ino.status();
    }
    FsStatus s = co_await WriteTagged(m, proc, ino.value(), file_bytes);
    if (s != FsStatus::kOk) {
      co_return s;
    }
  }
  co_return FsStatus::kOk;
}

Task<FsStatus> RemoveFiles(Machine& m, Proc& proc, const std::string& dir, int count) {
  for (int i = 0; i < count; ++i) {
    FsStatus s = co_await m.vfs().Unlink(proc, dir + "/c" + std::to_string(i));
    if (s != FsStatus::kOk) {
      co_return s;
    }
  }
  co_return FsStatus::kOk;
}

Task<FsStatus> CreateRemoveFiles(Machine& m, Proc& proc, const std::string& dir, int count,
                                 uint64_t file_bytes) {
  for (int i = 0; i < count; ++i) {
    std::string path = dir + "/cr" + std::to_string(i);
    Result<uint32_t> ino = co_await m.vfs().Create(proc, path);
    if (!ino.Ok()) {
      co_return ino.status();
    }
    FsStatus s = co_await WriteTagged(m, proc, ino.value(), file_bytes);
    if (s != FsStatus::kOk) {
      co_return s;
    }
    s = co_await m.vfs().Unlink(proc, path);
    if (s != FsStatus::kOk) {
      co_return s;
    }
  }
  co_return FsStatus::kOk;
}

// ---------------------------------------------------------------------
// Andrew
// ---------------------------------------------------------------------

Task<AndrewTimes> AndrewBenchmark(Machine& m, Proc& proc, const TreeSpec& tree,
                                  const std::string& src_root, const std::string& work_root) {
  AndrewTimes times;
  SimTime t0 = m.engine().Now();

  // Phase 1: make the directory tree.
  FsStatus s = co_await m.vfs().Mkdir(proc, work_root);
  (void)s;
  for (const auto& dir : tree.directories) {
    co_await m.vfs().Mkdir(proc, JoinPath(work_root, dir));
  }
  SimTime t1 = m.engine().Now();
  times.make_dir = ToSeconds(t1 - t0);

  // Phase 2: copy the data files.
  std::vector<uint8_t> buffer;
  for (const auto& f : tree.files) {
    Result<uint32_t> src = co_await m.vfs().Lookup(proc, JoinPath(src_root, f.path));
    if (!src.Ok()) {
      continue;
    }
    buffer.resize(f.size);
    (void)co_await m.vfs().ReadFile(proc, src.value(), 0, buffer);
    Result<uint32_t> dst = co_await m.vfs().Create(proc, JoinPath(work_root, f.path));
    if (dst.Ok()) {
      co_await WriteTagged(m, proc, dst.value(), f.size);
    }
  }
  SimTime t2 = m.engine().Now();
  times.copy = ToSeconds(t2 - t1);

  // Phase 3: examine the status of every file.
  for (const auto& f : tree.files) {
    (void)co_await m.vfs().Stat(proc, JoinPath(work_root, f.path));
  }
  SimTime t3 = m.engine().Now();
  times.scan_dir = ToSeconds(t3 - t2);

  // Phase 4: read every byte of every file.
  for (const auto& f : tree.files) {
    Result<uint32_t> ino = co_await m.vfs().Lookup(proc, JoinPath(work_root, f.path));
    if (!ino.Ok()) {
      continue;
    }
    buffer.resize(f.size);
    (void)co_await m.vfs().ReadFile(proc, ino.value(), 0, buffer);
  }
  SimTime t4 = m.engine().Now();
  times.read_all = ToSeconds(t4 - t3);

  // Phase 5: compile. CPU-dominated on a 33 MHz i486 ("aggressive,
  // time-consuming compilation techniques and a slow CPU"): each source
  // is read, crunched, and an object is written; a final link writes one
  // large output.
  uint64_t linked_bytes = 0;
  size_t compile_count = 0;
  for (const auto& f : tree.files) {
    if (compile_count >= tree.files.size() / 2) {
      break;
    }
    ++compile_count;
    Result<uint32_t> ino = co_await m.vfs().Lookup(proc, JoinPath(work_root, f.path));
    if (!ino.Ok()) {
      continue;
    }
    buffer.resize(f.size);
    (void)co_await m.vfs().ReadFile(proc, ino.value(), 0, buffer);
    co_await m.cpu().Consume(proc.pid, Sec(7));  // The compiler itself.
    Result<uint32_t> obj =
        co_await m.vfs().Create(proc, JoinPath(work_root, f.path) + ".o");
    if (obj.Ok()) {
      co_await WriteTagged(m, proc, obj.value(), f.size);
      linked_bytes += f.size;
    }
  }
  co_await m.cpu().Consume(proc.pid, Sec(5));  // Link.
  Result<uint32_t> out = co_await m.vfs().Create(proc, work_root + "/a.out");
  if (out.Ok()) {
    co_await WriteTagged(m, proc, out.value(), std::max<uint64_t>(linked_bytes / 2, kBlockSize));
  }
  times.compile = ToSeconds(m.engine().Now() - t4);
  co_return times;
}

// ---------------------------------------------------------------------
// Sdet
// ---------------------------------------------------------------------

Task<FsStatus> SdetScript(Machine& m, Proc& proc, const std::string& dir, uint64_t seed,
                          int operations) {
  Rng rng(seed);
  FsStatus s = co_await m.vfs().Mkdir(proc, dir);
  if (s != FsStatus::kOk && s != FsStatus::kExists) {
    co_return s;
  }
  std::vector<std::string> files;
  std::vector<std::string> subdirs;
  int name_counter = 0;

  for (int op = 0; op < operations; ++op) {
    double r = rng.UniformDouble();
    if (r < 0.18 || files.empty()) {
      // Create a small file (an "edit session" output).
      std::string path = dir + "/f" + std::to_string(name_counter++);
      Result<uint32_t> ino = co_await m.vfs().Create(proc, path);
      if (ino.Ok()) {
        co_await WriteTagged(m, proc, ino.value(), 512 + rng.Next() % 8192);
        files.push_back(path);
      }
    } else if (r < 0.38) {
      // Read a file.
      const std::string& path = files[rng.Next() % files.size()];
      Result<uint32_t> ino = co_await m.vfs().Lookup(proc, path);
      if (ino.Ok()) {
        std::vector<uint8_t> buf(8192);
        (void)co_await m.vfs().ReadFile(proc, ino.value(), 0, buf);
      }
    } else if (r < 0.53) {
      // Edit: read then rewrite.
      const std::string& path = files[rng.Next() % files.size()];
      Result<uint32_t> ino = co_await m.vfs().Lookup(proc, path);
      if (ino.Ok()) {
        co_await m.cpu().Consume(proc.pid, Msec(15));  // The editor.
        co_await WriteTagged(m, proc, ino.value(), 512 + rng.Next() % 8192);
      }
    } else if (r < 0.63) {
      // Delete.
      size_t idx = rng.Next() % files.size();
      FsStatus st = co_await m.vfs().Unlink(proc, files[idx]);
      if (st == FsStatus::kOk) {
        files.erase(files.begin() + static_cast<ptrdiff_t>(idx));
      }
    } else if (r < 0.71) {
      // Stat / ls.
      (void)co_await m.vfs().ReadDir(proc, dir);
    } else if (r < 0.76) {
      // Mkdir.
      std::string sub = dir + "/sub" + std::to_string(name_counter++);
      FsStatus st = co_await m.vfs().Mkdir(proc, sub);
      if (st == FsStatus::kOk) {
        subdirs.push_back(sub);
      }
    } else if (r < 0.80 && !subdirs.empty()) {
      // Rmdir (may fail if non-empty; that is fine).
      size_t idx = rng.Next() % subdirs.size();
      FsStatus st = co_await m.vfs().Rmdir(proc, subdirs[idx]);
      if (st == FsStatus::kOk) {
        subdirs.erase(subdirs.begin() + static_cast<ptrdiff_t>(idx));
      }
    } else if (r < 0.86) {
      // Rename.
      size_t idx = rng.Next() % files.size();
      std::string to = dir + "/r" + std::to_string(name_counter++);
      FsStatus st = co_await m.vfs().Rename(proc, files[idx], to);
      if (st == FsStatus::kOk) {
        files[idx] = to;
      }
    } else {
      // Compile: read a file, crunch, write an object.
      const std::string& path = files[rng.Next() % files.size()];
      Result<uint32_t> ino = co_await m.vfs().Lookup(proc, path);
      if (ino.Ok()) {
        std::vector<uint8_t> buf(8192);
        (void)co_await m.vfs().ReadFile(proc, ino.value(), 0, buf);
        co_await m.cpu().Consume(proc.pid, Msec(80));
        std::string obj = dir + "/o" + std::to_string(name_counter++);
        Result<uint32_t> oino = co_await m.vfs().Create(proc, obj);
        if (oino.Ok()) {
          co_await WriteTagged(m, proc, oino.value(), 2048 + rng.Next() % 16384);
          files.push_back(obj);
        }
      }
    }
  }
  co_return FsStatus::kOk;
}

// ---------------------------------------------------------------------
// Personalities
// ---------------------------------------------------------------------

namespace {

// Create + initial tagged write; returns the new ino (or the failure).
Task<Result<uint32_t>> CreateTagged(Machine& m, Proc& proc, const std::string& path,
                                    uint64_t bytes) {
  Result<uint32_t> ino = co_await m.vfs().Create(proc, path);
  if (!ino.Ok()) {
    co_return ino;
  }
  FsStatus s = co_await WriteTagged(m, proc, ino.value(), bytes);
  if (s != FsStatus::kOk) {
    co_return s;
  }
  co_return ino;
}

// Block-aligned append of `bytes` of tagged data (tags are per-block, so
// appends keep the file fsck-verifiable).
Task<FsStatus> AppendTagged(Machine& m, Proc& proc, uint32_t ino, uint64_t bytes) {
  Result<StatInfo> st = co_await m.vfs().StatIno(proc, ino);
  if (!st.Ok()) {
    co_return st.status();
  }
  uint64_t off = (st.value().size + kBlockSize - 1) / kBlockSize * kBlockSize;
  std::vector<uint8_t> data = MakeTaggedData(ino, st.value().generation, bytes);
  Result<uint64_t> w = co_await m.vfs().WriteFile(proc, ino, off, data);
  co_return w.Ok() ? FsStatus::kOk : w.status();
}

// Whole-file read through Lookup (cold reads hit the disk).
Task<bool> ReadWhole(Machine& m, Proc& proc, const std::string& path) {
  Result<uint32_t> ino = co_await m.vfs().Lookup(proc, path);
  if (!ino.Ok()) {
    co_return false;
  }
  Result<StatInfo> st = co_await m.vfs().StatIno(proc, ino.value());
  if (!st.Ok()) {
    co_return false;
  }
  std::vector<uint8_t> buf(std::max<uint64_t>(st.value().size, 1));
  Result<uint64_t> r = co_await m.vfs().ReadFile(proc, ino.value(), 0, buf);
  co_return r.Ok();
}

}  // namespace

Task<FsStatus> MailServerWorkload(Machine& m, Proc& proc, const std::string& root,
                                  uint64_t seed, int operations, PersonalityOpMix* mix) {
  Rng rng(seed);
  PersonalityOpMix mx;
  for (const std::string& d : {root, root + "/tmp", root + "/new", root + "/cur"}) {
    FsStatus s = co_await m.vfs().Mkdir(proc, d);
    if (s != FsStatus::kOk && s != FsStatus::kExists) {
      co_return s;
    }
    ++mx.mkdirs;
  }
  Result<uint32_t> log = co_await CreateTagged(m, proc, root + "/log", kBlockSize);
  if (!log.Ok()) {
    co_return log.status();
  }
  ++mx.creates;

  std::vector<std::string> fresh;  // Message names sitting in new/.
  std::vector<std::string> seen;   // Message names sitting in cur/.
  int name_counter = 0;
  for (int op = 0; op < operations; ++op) {
    double r = rng.UniformDouble();
    if (r < 0.35 || (fresh.empty() && seen.empty())) {
      // Delivery: write the message under tmp/, then rename it into
      // new/ (the maildir atomic-publish idiom).
      std::string name = "m";
      name += std::to_string(name_counter++);
      uint64_t bytes = 512 + rng.Next() % 4096;
      Result<uint32_t> ino = co_await CreateTagged(m, proc, root + "/tmp/" + name, bytes);
      if (!ino.Ok()) {
        continue;
      }
      ++mx.creates;
      if ((co_await m.vfs().Rename(proc, root + "/tmp/" + name, root + "/new/" + name)) ==
          FsStatus::kOk) {
        ++mx.renames;
        fresh.push_back(name);
      }
    } else if (r < 0.55 && !fresh.empty()) {
      // A reader notices the message: move new/ -> cur/.
      size_t idx = rng.Next() % fresh.size();
      std::string name = fresh[idx];
      if ((co_await m.vfs().Rename(proc, root + "/new/" + name, root + "/cur/" + name)) ==
          FsStatus::kOk) {
        ++mx.renames;
        seen.push_back(name);
        fresh.erase(fresh.begin() + static_cast<ptrdiff_t>(idx));
      }
    } else if (r < 0.70 && !seen.empty()) {
      // Re-read a seen message.
      std::string path = root + "/cur/" + seen[rng.Next() % seen.size()];
      Result<StatInfo> st = co_await m.vfs().Stat(proc, path);
      if (st.Ok()) {
        ++mx.stats;
      }
      if (co_await ReadWhole(m, proc, path)) {
        ++mx.reads;
      }
    } else if (r < 0.85) {
      // Append a delivery record to the log.
      if ((co_await AppendTagged(m, proc, log.value(), kBlockSize)) == FsStatus::kOk) {
        ++mx.appends;
      }
    } else if (!seen.empty()) {
      // Expunge.
      size_t idx = rng.Next() % seen.size();
      if ((co_await m.vfs().Unlink(proc, root + "/cur/" + seen[idx])) == FsStatus::kOk) {
        ++mx.unlinks;
        seen.erase(seen.begin() + static_cast<ptrdiff_t>(idx));
      }
    }
  }
  if (mix != nullptr) {
    *mix = mx;
  }
  co_return FsStatus::kOk;
}

Task<FsStatus> BuildFarmWorkload(Machine& m, Proc& proc, const std::string& root,
                                 uint64_t seed, int operations, PersonalityOpMix* mix) {
  Rng rng(seed);
  PersonalityOpMix mx;
  FsStatus s = co_await m.vfs().Mkdir(proc, root);
  if (s != FsStatus::kOk && s != FsStatus::kExists) {
    co_return s;
  }
  ++mx.mkdirs;
  // A deep module chain: root/d0/d1/.../d5, four sources per level.
  std::vector<std::string> dirs;
  std::string path = root;
  for (int d = 0; d < 6; ++d) {
    path += "/d" + std::to_string(d);
    s = co_await m.vfs().Mkdir(proc, path);
    if (s != FsStatus::kOk) {
      co_return s;
    }
    ++mx.mkdirs;
    dirs.push_back(path);
  }
  std::vector<std::string> sources;
  for (const std::string& dir : dirs) {
    for (int i = 0; i < 4; ++i) {
      std::string src = dir + "/s" + std::to_string(i) + ".c";
      Result<uint32_t> ino = co_await CreateTagged(m, proc, src, 2048 + rng.Next() % 6144);
      if (ino.Ok()) {
        ++mx.creates;
        sources.push_back(src);
      }
    }
  }

  std::vector<std::string> objects;
  int name_counter = 0;
  for (int op = 0; op < operations; ++op) {
    double r = rng.UniformDouble();
    if (r < 0.55) {
      // Dependency scan: make stats every node along every deep path.
      for (const std::string& dir : dirs) {
        if ((co_await m.vfs().Stat(proc, dir)).Ok()) {
          ++mx.stats;
        }
      }
      for (const std::string& src : sources) {
        if ((co_await m.vfs().Stat(proc, src)).Ok()) {
          ++mx.stats;
        }
      }
    } else if (r < 0.75) {
      // Compile one translation unit.
      const std::string& src = sources[rng.Next() % sources.size()];
      if (co_await ReadWhole(m, proc, src)) {
        ++mx.reads;
      }
      co_await m.cpu().Consume(proc.pid, Msec(60));
      std::string obj = src + "." + std::to_string(name_counter++) + ".o";
      Result<uint32_t> ino = co_await CreateTagged(m, proc, obj, 4096 + rng.Next() % 8192);
      if (ino.Ok()) {
        ++mx.creates;
        objects.push_back(obj);
      }
    } else if (r < 0.90) {
      // Incremental edit: rewrite a source in place.
      const std::string& src = sources[rng.Next() % sources.size()];
      Result<uint32_t> ino = co_await m.vfs().Lookup(proc, src);
      if (ino.Ok() &&
          (co_await WriteTagged(m, proc, ino.value(), 2048 + rng.Next() % 6144)) ==
              FsStatus::kOk) {
        ++mx.appends;
      }
    } else {
      // Clean pass: remove every object.
      for (const std::string& obj : objects) {
        if ((co_await m.vfs().Unlink(proc, obj)) == FsStatus::kOk) {
          ++mx.unlinks;
        }
      }
      objects.clear();
    }
  }
  if (mix != nullptr) {
    *mix = mx;
  }
  co_return FsStatus::kOk;
}

Task<FsStatus> WebAssetSwapWorkload(Machine& m, Proc& proc, const std::string& root,
                                    uint64_t seed, int operations, PersonalityOpMix* mix) {
  Rng rng(seed);
  PersonalityOpMix mx;
  for (const std::string& d : {root, root + "/stage"}) {
    FsStatus s = co_await m.vfs().Mkdir(proc, d);
    if (s != FsStatus::kOk && s != FsStatus::kExists) {
      co_return s;
    }
    ++mx.mkdirs;
  }
  constexpr int kAssets = 12;
  for (int i = 0; i < kAssets; ++i) {
    Result<uint32_t> ino = co_await CreateTagged(m, proc, root + "/a" + std::to_string(i),
                                                 1024 + rng.Next() % 16384);
    if (!ino.Ok()) {
      co_return ino.status();
    }
    ++mx.creates;
  }

  int version = 0;
  for (int op = 0; op < operations; ++op) {
    double r = rng.UniformDouble();
    std::string live = root + "/a" + std::to_string(rng.Next() % kAssets);
    if (r < 0.70) {
      // Deploy: stage the new version, then swap it in. Rename does not
      // replace, so the swap is unlink(live) + rename(staged, live) -
      // exactly the window the ordering schemes must keep safe.
      std::string staged = root + "/stage/v" + std::to_string(version++);
      Result<uint32_t> ino = co_await CreateTagged(m, proc, staged, 1024 + rng.Next() % 16384);
      if (!ino.Ok()) {
        continue;
      }
      ++mx.creates;
      if ((co_await m.vfs().Unlink(proc, live)) == FsStatus::kOk) {
        ++mx.unlinks;
      }
      if ((co_await m.vfs().Rename(proc, staged, live)) == FsStatus::kOk) {
        ++mx.renames;
      }
    } else if (r < 0.90) {
      // Serve: stat (cache validation) + read.
      if ((co_await m.vfs().Stat(proc, live)).Ok()) {
        ++mx.stats;
      }
      if (co_await ReadWhole(m, proc, live)) {
        ++mx.reads;
      }
    } else {
      // Directory listing (health check / index page).
      if ((co_await m.vfs().ReadDir(proc, root)).Ok()) {
        ++mx.stats;
      }
    }
  }
  if (mix != nullptr) {
    *mix = mx;
  }
  co_return FsStatus::kOk;
}

Task<FsStatus> CacheCleanupWorkload(Machine& m, Proc& proc, const std::string& root,
                                    uint64_t seed, int operations, PersonalityOpMix* mix) {
  Rng rng(seed);
  PersonalityOpMix mx;
  FsStatus s = co_await m.vfs().Mkdir(proc, root);
  if (s != FsStatus::kOk && s != FsStatus::kExists) {
    co_return s;
  }
  ++mx.mkdirs;
  constexpr int kBuckets = 4;
  int name_counter = 0;

  // Alternate fill and cleanup passes until the op budget is spent.
  // Bounded rounds guard against a pathological all-ops-fail run.
  for (int round = 0; round < 64 && mx.Total() < static_cast<uint64_t>(operations);
       ++round) {
    // Fill: cache some files into hash buckets (mcachefs backs the
    // cached tree with a mirror of the source hierarchy).
    int fill = 8 + static_cast<int>(rng.Next() % 8);
    for (int i = 0; i < fill; ++i) {
      std::string bucket = root + "/b" + std::to_string(rng.Next() % kBuckets);
      FsStatus bs = co_await m.vfs().Mkdir(proc, bucket);
      if (bs == FsStatus::kOk) {
        ++mx.mkdirs;
      } else if (bs != FsStatus::kExists) {
        continue;
      }
      Result<uint32_t> ino = co_await CreateTagged(
          m, proc, bucket + "/c" + std::to_string(name_counter++), 1024 + rng.Next() % 32768);
      if (ino.Ok()) {
        ++mx.creates;
      }
    }

    // Cleanup-backing pass: walk the backing tree collecting sizes...
    struct Victim {
      std::string path;
      uint64_t size;
    };
    std::vector<Victim> victims;
    uint64_t total_bytes = 0;
    for (int b = 0; b < kBuckets; ++b) {
      std::string bucket = root + "/b" + std::to_string(b);
      Result<std::vector<DirEntryInfo>> entries = co_await m.vfs().ReadDir(proc, bucket);
      if (!entries.Ok()) {
        continue;
      }
      ++mx.stats;
      for (const DirEntryInfo& e : entries.value()) {
        std::string path = bucket + "/" + e.name;
        Result<StatInfo> st = co_await m.vfs().Stat(proc, path);
        if (!st.Ok()) {
          continue;
        }
        ++mx.stats;
        victims.push_back({path, st.value().size});
        total_bytes += st.value().size;
      }
    }
    // ...pick victims deterministically (largest first, path as the
    // tiebreak) and unlink until 40% of the bytes are freed...
    std::sort(victims.begin(), victims.end(), [](const Victim& a, const Victim& b) {
      return a.size != b.size ? a.size > b.size : a.path < b.path;
    });
    uint64_t budget = total_bytes * 2 / 5;
    uint64_t freed = 0;
    for (const Victim& v : victims) {
      if (freed >= budget) {
        break;
      }
      if ((co_await m.vfs().Unlink(proc, v.path)) == FsStatus::kOk) {
        ++mx.unlinks;
        freed += v.size;
      }
    }
    // ...then expire one bucket outright (its source subtree vanished:
    // purge every backing file and drop the directory), and drop any
    // other bucket the byte-budget eviction happened to empty.
    std::string expired = root + "/b" + std::to_string(round % kBuckets);
    Result<std::vector<DirEntryInfo>> left = co_await m.vfs().ReadDir(proc, expired);
    if (left.Ok()) {
      for (const DirEntryInfo& e : left.value()) {
        if ((co_await m.vfs().Unlink(proc, expired + "/" + e.name)) == FsStatus::kOk) {
          ++mx.unlinks;
        }
      }
    }
    for (int b = 0; b < kBuckets; ++b) {
      if ((co_await m.vfs().Rmdir(proc, root + "/b" + std::to_string(b))) == FsStatus::kOk) {
        ++mx.rmdirs;
      }
    }
  }
  if (mix != nullptr) {
    *mix = mx;
  }
  co_return FsStatus::kOk;
}

// ---------------------------------------------------------------------
// Multi-user runner
// ---------------------------------------------------------------------

namespace {

struct RunnerState {
  bool setup_done = false;
  int users_finished = 0;
  std::vector<SimTime> user_start;
  std::vector<SimTime> user_end;
};

Task<void> SetupRoot(Machine* m, Proc* proc, const SetupFn* setup, RunnerState* st) {
  co_await m->Boot(*proc);
  if (*setup) {
    co_await (*setup)(*m, *proc);
  }
  // Flush the setup's dirt so the timed phase starts from a stable disk.
  co_await m->vfs().SyncEverything(*proc);
  st->setup_done = true;
}

Task<void> UserRoot(Machine* m, Proc* proc, const UserFn* body, int index, RunnerState* st) {
  st->user_start[static_cast<size_t>(index)] = m->engine().Now();
  co_await (*body)(*m, *proc, index);
  st->user_end[static_cast<size_t>(index)] = m->engine().Now();
  st->users_finished++;
}

// Issued requests and the successful completions' response and access
// times, summed over every disk's driver counters and histograms.
struct DriverTotals {
  uint64_t requests = 0;
  uint64_t responses = 0;
  SimDuration response_ns = 0;
  uint64_t accesses = 0;
  SimDuration access_ns = 0;
};

DriverTotals SumDriverTotals(Machine& m) {
  DriverTotals t;
  for (size_t d = 0; d < m.NumDisks(); ++d) {
    const std::string& inst = m.driver(d).config().instance;
    const LatencyHistogram& resp =
        m.stats().histogram(InstanceMetricName(inst, "disk.response_ns"));
    const LatencyHistogram& access =
        m.stats().histogram(InstanceMetricName(inst, "disk.access_ns"));
    t.requests += m.driver(d).TotalRequests();
    t.responses += resp.count();
    t.response_ns += resp.sum();
    t.accesses += access.count();
    t.access_ns += access.sum();
  }
  return t;
}

}  // namespace

RunMeasurement RunMultiUser(Machine& m, int num_users, const SetupFn& setup,
                            const UserFn& user_body, bool drop_caches_after_setup) {
  RunnerState st;
  st.user_start.resize(static_cast<size_t>(num_users));
  st.user_end.resize(static_cast<size_t>(num_users));

  Proc setup_proc = m.MakeProc("setup");
  m.engine().Spawn(SetupRoot(&m, &setup_proc, &setup, &st), "setup");
  m.engine().RunUntil([&] { return st.setup_done; });

  if (drop_caches_after_setup) {
    m.vfs().DropCleanInodes();
    for (size_t s = 0; s < m.NumShards(); ++s) {
      m.cache(s).DropClean();
    }
  }

  std::vector<Proc> procs;
  procs.reserve(static_cast<size_t>(num_users));
  for (int u = 0; u < num_users; ++u) {
    procs.push_back(m.MakeProc("user" + std::to_string(u)));
  }
  std::vector<SimDuration> cpu0(static_cast<size_t>(num_users));
  for (int u = 0; u < num_users; ++u) {
    cpu0[static_cast<size_t>(u)] = m.cpu().Charged(procs[static_cast<size_t>(u)].pid);
  }
  const DriverTotals driver0 = SumDriverTotals(m);
  SimTime t0 = m.engine().Now();

  for (int u = 0; u < num_users; ++u) {
    m.engine().Spawn(UserRoot(&m, &procs[static_cast<size_t>(u)], &user_body, u, &st),
                     procs[static_cast<size_t>(u)].name);
  }
  m.engine().RunUntil([&] { return st.users_finished == num_users; });
  SimTime t_users_done = m.engine().Now();

  // Let background flushing quiesce (bounded) so system-wide I/O counts
  // cover the whole benchmark, like the paper's system-wide statistics.
  SimTime deadline = t_users_done + Sec(90);
  m.engine().RunUntil([&] {
    bool quiet = !m.vfs().AnyDirtyInode();
    for (size_t d = 0; quiet && d < m.NumDisks(); ++d) {
      quiet = m.driver(d).PendingCount() == 0;
    }
    for (size_t s = 0; quiet && s < m.NumShards(); ++s) {
      quiet = m.cache(s).DirtyCount() == 0 && m.syncer(s).PendingWork() == 0;
    }
    return quiet || m.engine().Now() >= deadline;
  });

  RunMeasurement out;
  out.users.resize(static_cast<size_t>(num_users));
  for (int u = 0; u < num_users; ++u) {
    auto& us = out.users[static_cast<size_t>(u)];
    us.elapsed = st.user_end[static_cast<size_t>(u)] - st.user_start[static_cast<size_t>(u)];
    us.cpu = m.cpu().Charged(procs[static_cast<size_t>(u)].pid) - cpu0[static_cast<size_t>(u)];
    out.cpu_seconds_total += ToSeconds(us.cpu);
  }
  out.wall = t_users_done - t0;
  const DriverTotals driver1 = SumDriverTotals(m);
  out.disk_requests = driver1.requests - driver0.requests;
  if (driver1.responses > driver0.responses) {
    out.avg_response_ms = ToMs(driver1.response_ns - driver0.response_ns) /
                          static_cast<double>(driver1.responses - driver0.responses);
  }
  if (driver1.accesses > driver0.accesses) {
    out.avg_access_ms = ToMs(driver1.access_ns - driver0.access_ns) /
                        static_cast<double>(driver1.accesses - driver0.accesses);
  }
  out.stats_json = m.DumpStatsJson();
  return out;
}

}  // namespace mufs
