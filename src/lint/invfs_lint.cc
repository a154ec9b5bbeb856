// invfs_lint: project-specific concurrency-invariant checker.
//
// Clang's thread safety analysis proves that guarded fields are accessed
// under their locks, but five invariants of this engine live outside its
// vocabulary; this tool enforces them with a token-level scan so the check
// runs on every toolchain (it needs no clang and no compile database):
//
//   naked-mutex          Outside src/util/mutex.h, code must use the
//                        annotated invfs::Mutex/MutexLock/CondVar wrappers.
//                        A raw std::mutex (or lock_guard, unique_lock,
//                        scoped_lock, shared_mutex, condition_variable, or
//                        an #include of their headers) is invisible to the
//                        thread safety analysis, so locking discipline on it
//                        is unchecked — forbidden.
//
//   shard-lock-io        A thread holding a buffer-pool *shard* mutex (a
//                        MutexLock, ReaderMutexLock or WriterMutexLock on an
//                        expression ending in `.mu` or `->mu`; member
//                        mutexes are spelled `mu_`), shared or not, must not
//                        reach the device layer. Device I/O belongs under
//                        io_mu_, which orders strictly before every shard
//                        mutex; I/O under a shard mutex inverts that order
//                        and stalls the pool's hit path behind a disk.
//
//   cv-wait-extra-lock   CondVar::Wait releases exactly one designated mutex
//                        while sleeping. Waiting with a second MutexLock
//                        live keeps that other mutex held across the sleep —
//                        a deadlock seed the analysis cannot flag because
//                        each scoped lock is individually well-formed.
//
//   crash-point-placement  CrashPointRegistry::Hit sites define the torture
//                        harness' crash surface. Every site must name a
//                        point from the catalog in crash_points.h and live
//                        in one of the write-boundary files (commit_log.cc,
//                        buffer_pool.cc, heap.cc, btree.cc); a typo'd name
//                        or a Hit in random code silently shrinks or
//                        distorts the torture sweep.
//
//   span-raii            Outside src/obs/span.{h,cc}, spans begin and end
//                        only through the ScopedSpan RAII helper. A raw
//                        RecordSpan() call can publish a record with no
//                        matching context save/restore, and touching the
//                        thread-local ids (t_trace_id/t_span_id) directly
//                        can corrupt the current-span context for every
//                        span opened later on that thread.
//
// Suppression: a comment `invfs-lint: allow(<rule>)` on the same line (or
// the line above) waives that rule for that line. Fixture mode for the lint
// self-tests: --expect-fail=<rule> exits 0 iff the scan finds at least one
// violation of exactly that rule.
//
// Usage: invfs_lint [--expect-fail=<rule>] <file-or-directory>...

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace {

struct Token {
  enum class Kind { kIdent, kString, kPunct };
  Kind kind;
  std::string text;  // identifier/punct spelling, or string literal contents
  int line;
};

struct Finding {
  std::string file;
  int line;
  std::string rule;
  std::string message;
};

const std::set<std::string> kForbiddenStdSync = {
    "mutex",          "timed_mutex",       "recursive_mutex",
    "shared_mutex",   "recursive_timed_mutex",
    "lock_guard",     "unique_lock",       "scoped_lock",
    "shared_lock",    "condition_variable", "condition_variable_any",
};

const std::set<std::string> kForbiddenIncludes = {
    "mutex", "condition_variable", "shared_mutex"};

// The RAII scoped-lock types of src/util/mutex.h.
const std::set<std::string> kScopedLocks = {"MutexLock", "ReaderMutexLock",
                                            "WriterMutexLock"};

// Calls that reach the device layer (or are documented REQUIRES(io_mu_)
// buffer-pool I/O helpers). Forbidden while a shard mutex is held.
const std::set<std::string> kIoCalls = {
    "ReadBlock", "WriteBlock",  "CreateRelation", "DropRelation",
    "WriteFrame", "FlushFrames", "EvictOne",      "WriteLogBlock",
};

// Keep in sync with the catalog comment in src/fault/crash_points.h.
const std::set<std::string> kCrashPoints = {
    "commitlog.pre_flush", "commitlog.mid_batch", "commitlog.post_flush",
    "buffer.write_back",   "buffer.eviction",     "heap.insert",
    "btree.split",
};

const std::set<std::string> kCrashPointFiles = {
    "commit_log.cc", "buffer_pool.cc", "heap.cc", "btree.cc"};

// Files exempt from naked-mutex: the annotated wrappers themselves.
bool IsMutexWrapperFile(const std::string& path) {
  return path.size() >= 12 &&
         path.compare(path.size() - 12, 12, "util/mutex.h") == 0;
}

bool IsCrashPointHeader(const std::string& path) {
  return path.find("crash_points.h") != std::string::npos;
}

// Files exempt from span-raii: the span layer itself, where RecordSpan and
// the thread-local context are defined and maintained.
bool IsSpanFile(const std::string& path) {
  return path.find("obs/span.h") != std::string::npos ||
         path.find("obs/span.cc") != std::string::npos;
}

// Scans one file into tokens, recording `invfs-lint: allow(rule)` comment
// directives per line as it goes.
class Scanner {
 public:
  Scanner(const std::string& src, std::map<int, std::set<std::string>>* allows)
      : src_(src), allows_(allows) {}

  std::vector<Token> Tokenize() {
    std::vector<Token> out;
    size_t i = 0;
    const size_t n = src_.size();
    while (i < n) {
      const char c = src_[i];
      if (c == '\n') {
        ++line_;
        ++i;
        continue;
      }
      if (c == ' ' || c == '\t' || c == '\r' || c == '\f' || c == '\v') {
        ++i;
        continue;
      }
      if (c == '/' && i + 1 < n && src_[i + 1] == '/') {
        const size_t start = i;
        while (i < n && src_[i] != '\n') {
          ++i;
        }
        NoteAllows(src_.substr(start, i - start), line_);
        continue;
      }
      if (c == '/' && i + 1 < n && src_[i + 1] == '*') {
        const size_t start = i;
        const int start_line = line_;
        i += 2;
        while (i + 1 < n && !(src_[i] == '*' && src_[i + 1] == '/')) {
          if (src_[i] == '\n') {
            ++line_;
          }
          ++i;
        }
        i = std::min(n, i + 2);
        NoteAllows(src_.substr(start, i - start), start_line);
        continue;
      }
      if (c == '"') {
        std::string value;
        ++i;
        while (i < n && src_[i] != '"') {
          if (src_[i] == '\\' && i + 1 < n) {
            value += src_[i];
            value += src_[i + 1];
            i += 2;
            continue;
          }
          if (src_[i] == '\n') {
            ++line_;  // unterminated; tolerate
          }
          value += src_[i];
          ++i;
        }
        ++i;  // closing quote
        out.push_back({Token::Kind::kString, value, line_});
        continue;
      }
      if (c == '\'') {
        ++i;
        while (i < n && src_[i] != '\'') {
          if (src_[i] == '\\' && i + 1 < n) {
            i += 2;
            continue;
          }
          ++i;
        }
        ++i;
        continue;  // char literals carry no lint signal
      }
      if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
        const size_t start = i;
        while (i < n && (std::isalnum(static_cast<unsigned char>(src_[i])) ||
                         src_[i] == '_')) {
          ++i;
        }
        out.push_back({Token::Kind::kIdent, src_.substr(start, i - start), line_});
        continue;
      }
      if (std::isdigit(static_cast<unsigned char>(c))) {
        while (i < n && (std::isalnum(static_cast<unsigned char>(src_[i])) ||
                         src_[i] == '.' || src_[i] == '\'')) {
          ++i;  // numbers (incl. hex/float/digit separators) carry no signal
        }
        continue;
      }
      // Two-char puncts the rules care about.
      if (c == ':' && i + 1 < n && src_[i + 1] == ':') {
        out.push_back({Token::Kind::kPunct, "::", line_});
        i += 2;
        continue;
      }
      if (c == '-' && i + 1 < n && src_[i + 1] == '>') {
        out.push_back({Token::Kind::kPunct, "->", line_});
        i += 2;
        continue;
      }
      out.push_back({Token::Kind::kPunct, std::string(1, c), line_});
      ++i;
    }
    return out;
  }

 private:
  void NoteAllows(const std::string& comment, int line) {
    size_t pos = 0;
    while ((pos = comment.find("invfs-lint: allow(", pos)) != std::string::npos) {
      const size_t open = pos + 18;
      const size_t close = comment.find(')', open);
      if (close == std::string::npos) {
        break;
      }
      const std::string rule = comment.substr(open, close - open);
      // The directive covers its own line and the next source line, so it
      // works both trailing and as a standalone comment line.
      (*allows_)[line].insert(rule);
      (*allows_)[line + 1].insert(rule);
      pos = close;
    }
  }

  const std::string& src_;
  std::map<int, std::set<std::string>>* allows_;
  int line_ = 1;
};

class Linter {
 public:
  explicit Linter(std::vector<Finding>* findings) : findings_(findings) {}

  void LintFile(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      findings_->push_back({path, 0, "io", "cannot read file"});
      return;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    const std::string src = ss.str();

    std::map<int, std::set<std::string>> allows;
    std::vector<Token> toks = Scanner(src, &allows).Tokenize();

    const std::string base = std::filesystem::path(path).filename().string();
    // A scoped lock (kScopedLocks) live at the current brace depth.
    struct LockScope {
      int depth;
      bool shard;
      std::string expr;
      int line;
    };
    std::vector<LockScope> locks;
    int depth = 0;

    auto allowed = [&](int line, const std::string& rule) {
      auto it = allows.find(line);
      return it != allows.end() && it->second.count(rule) != 0;
    };
    auto report = [&](int line, const std::string& rule, std::string msg) {
      if (!allowed(line, rule)) {
        findings_->push_back({path, line, rule, std::move(msg)});
      }
    };
    auto ident = [&](size_t i, const char* text) {
      return i < toks.size() && toks[i].kind == Token::Kind::kIdent &&
             toks[i].text == text;
    };
    auto punct = [&](size_t i, const char* text) {
      return i < toks.size() && toks[i].kind == Token::Kind::kPunct &&
             toks[i].text == text;
    };

    for (size_t i = 0; i < toks.size(); ++i) {
      const Token& t = toks[i];
      if (t.kind == Token::Kind::kPunct) {
        if (t.text == "{") {
          ++depth;
        } else if (t.text == "}") {
          --depth;
          while (!locks.empty() && locks.back().depth > depth) {
            locks.pop_back();
          }
        }
        continue;
      }
      if (t.kind != Token::Kind::kIdent) {
        continue;
      }

      // --- naked-mutex ---------------------------------------------------
      if (t.text == "std" && punct(i + 1, "::") && i + 2 < toks.size() &&
          toks[i + 2].kind == Token::Kind::kIdent &&
          kForbiddenStdSync.count(toks[i + 2].text) != 0 &&
          !IsMutexWrapperFile(path)) {
        report(t.line, "naked-mutex",
               "std::" + toks[i + 2].text +
                   " is invisible to the thread safety analysis; use "
                   "invfs::Mutex/MutexLock/CondVar (src/util/mutex.h)");
      }
      if (t.text == "include" && punct(i - 1, "#") && punct(i + 1, "<") &&
          i + 2 < toks.size() &&
          kForbiddenIncludes.count(toks[i + 2].text) != 0 &&
          !IsMutexWrapperFile(path)) {
        report(t.line, "naked-mutex",
               "#include <" + toks[i + 2].text +
                   "> outside src/util/mutex.h; include src/util/mutex.h");
      }

      // --- lock-scope tracking ------------------------------------------
      if (kScopedLocks.count(t.text) != 0 && i + 2 < toks.size() &&
          toks[i + 1].kind == Token::Kind::kIdent && punct(i + 2, "(")) {
        // Capture the constructor argument up to the matching ')'.
        size_t j = i + 3;
        int paren = 1;
        std::vector<const Token*> arg;
        while (j < toks.size() && paren > 0) {
          if (punct(j, "(")) {
            ++paren;
          } else if (punct(j, ")")) {
            --paren;
          }
          if (paren > 0) {
            arg.push_back(&toks[j]);
          }
          ++j;
        }
        std::string expr;
        for (const Token* a : arg) {
          expr += a->text;
        }
        // A shard mutex is a *member named exactly `mu`* reached through an
        // object (s.mu, shard->mu); long-lived member mutexes are spelled
        // `mu_`/`io_mu_` and are not shard locks.
        bool shard = false;
        if (arg.size() >= 2 && arg.back()->kind == Token::Kind::kIdent &&
            arg.back()->text == "mu") {
          const std::string& sep = arg[arg.size() - 2]->text;
          shard = sep == "." || sep == "->";
        }
        locks.push_back({depth, shard, expr, t.line});
        i = j - 1;
        continue;
      }

      // --- shard-lock-io -------------------------------------------------
      if (kIoCalls.count(t.text) != 0 && punct(i + 1, "(")) {
        for (const LockScope& l : locks) {
          if (l.shard) {
            report(t.line, "shard-lock-io",
                   t.text + "() while holding shard mutex `" + l.expr +
                       "` (locked line " + std::to_string(l.line) +
                       "); device I/O must run under io_mu_ only");
            break;
          }
        }
      }

      // --- cv-wait-extra-lock -------------------------------------------
      if (t.text == "Wait" && (punct(i - 1, ".") || punct(i - 1, "->")) &&
          punct(i + 1, "(")) {
        if (locks.size() >= 2) {
          report(t.line, "cv-wait-extra-lock",
                 "condition wait with " + std::to_string(locks.size()) +
                     " scoped locks live (first extra: `" +
                     locks[locks.size() - 2].expr + "` line " +
                     std::to_string(locks[locks.size() - 2].line) +
                     "); Wait releases only its designated mutex");
        }
      }

      // --- span-raii -----------------------------------------------------
      if (t.text == "RecordSpan" && punct(i + 1, "(") && !IsSpanFile(path)) {
        report(t.line, "span-raii",
               "RecordSpan() outside src/obs/span.{h,cc}; begin/end spans "
               "only through the ScopedSpan RAII helper");
      }
      if ((t.text == "t_trace_id" || t.text == "t_span_id") &&
          !IsSpanFile(path)) {
        report(t.line, "span-raii",
               t.text + " (the span layer's thread-local context) touched "
                        "outside src/obs/span.{h,cc}; use ScopedSpan");
      }

      // --- crash-point-placement ----------------------------------------
      if (t.text == "CrashPointRegistry" && punct(i + 1, "::") &&
          ident(i + 2, "Hit") && punct(i + 3, "(") &&
          !IsCrashPointHeader(path)) {
        if (i + 4 < toks.size() && toks[i + 4].kind == Token::Kind::kString) {
          const std::string& name = toks[i + 4].text;
          if (kCrashPoints.count(name) == 0) {
            report(t.line, "crash-point-placement",
                   "crash point \"" + name +
                       "\" is not in the catalog (src/fault/crash_points.h)");
          }
        } else {
          report(t.line, "crash-point-placement",
                 "crash point name must be a string literal from the catalog");
        }
        if (kCrashPointFiles.count(base) == 0) {
          report(t.line, "crash-point-placement",
                 "CrashPointRegistry::Hit outside the write-boundary files (" +
                     base + "); allowed: commit_log.cc, buffer_pool.cc, "
                     "heap.cc, btree.cc");
        }
      }
    }
  }

 private:
  std::vector<Finding>* findings_;
};

bool LintableFile(const std::filesystem::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cc" || ext == ".h";
}

}  // namespace

int main(int argc, char** argv) {
  std::string expect_rule;
  std::vector<std::string> inputs;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--expect-fail=", 0) == 0) {
      expect_rule = arg.substr(14);
    } else if (arg == "--help" || arg == "-h") {
      std::printf("usage: invfs_lint [--expect-fail=<rule>] <file-or-dir>...\n");
      return 0;
    } else {
      inputs.push_back(arg);
    }
  }
  if (inputs.empty()) {
    std::fprintf(stderr, "invfs_lint: no inputs\n");
    return 2;
  }

  std::vector<std::string> files;
  for (const std::string& in : inputs) {
    std::filesystem::path p(in);
    if (std::filesystem::is_directory(p)) {
      for (const auto& e : std::filesystem::recursive_directory_iterator(p)) {
        if (e.is_regular_file() && LintableFile(e.path())) {
          files.push_back(e.path().string());
        }
      }
    } else {
      files.push_back(in);
    }
  }
  std::sort(files.begin(), files.end());

  std::vector<Finding> findings;
  Linter linter(&findings);
  for (const std::string& f : files) {
    linter.LintFile(f);
  }

  for (const Finding& f : findings) {
    std::fprintf(stderr, "%s:%d: [%s] %s\n", f.file.c_str(), f.line,
                 f.rule.c_str(), f.message.c_str());
  }

  if (!expect_rule.empty()) {
    const bool hit = std::any_of(
        findings.begin(), findings.end(),
        [&](const Finding& f) { return f.rule == expect_rule; });
    if (!hit) {
      std::fprintf(stderr,
                   "invfs_lint: expected at least one [%s] violation, found "
                   "none\n",
                   expect_rule.c_str());
      return 1;
    }
    std::fprintf(stderr, "invfs_lint: [%s] violation detected as expected\n",
                 expect_rule.c_str());
    return 0;
  }

  if (!findings.empty()) {
    std::fprintf(stderr, "invfs_lint: %zu violation(s) in %zu file(s)\n",
                 findings.size(), files.size());
    return 1;
  }
  std::printf("invfs_lint: %zu files clean\n", files.size());
  return 0;
}
