// Built-in file functions, registered at mount.
//
// These realize the paper's "functions that operate on a particular type may
// also be registered with the database system ... invoked from the query
// language": owner(file), size(file), filetype(file), dir(file), and the
// generic ASCII-document functions of Table 2 (linecount, wordcount,
// keywords). Domain-specific functions like snow(file) are registered the
// same way by applications (see examples/satellite_queries.cc).

#include <algorithm>
#include <cctype>
#include <set>

#include "src/inversion/inv_fs.h"

namespace invfs {
namespace {

Result<Oid> ArgFileOid(std::span<const Value> args) {
  if (args.size() != 1 || args[0].is_null()) {
    return Status::InvalidArgument("file function expects one file-oid argument");
  }
  if (args[0].HasType(TypeId::kOid)) {
    return args[0].AsOid();
  }
  INV_ASSIGN_OR_RETURN(int64_t v, args[0].ToInt64());
  return static_cast<Oid>(v);
}

std::string BytesToText(const std::vector<std::byte>& bytes, size_t limit) {
  const size_t n = std::min(bytes.size(), limit);
  std::string out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const char c = static_cast<char>(bytes[i]);
    out.push_back(c == '\0' ? ' ' : c);
  }
  return out;
}

constexpr const char* kMonthNames[] = {"January",   "February", "March",    "April",
                                       "May",       "June",     "July",     "August",
                                       "September", "October",  "November", "December"};

}  // namespace

Status InversionFs::RegisterBuiltinFunctions(TxnId txn) {
  auto att_of = [this](Oid file, const Snapshot& snap) -> Result<FileAtt> {
    INV_ASSIGN_OR_RETURN(auto att, FileattLookup(file, snap));
    if (!att.has_value()) {
      return Status::NotFound("file oid " + std::to_string(file));
    }
    return std::move(att->second);
  };

  // The fileatt columns read as they are.
  using Get = Value (*)(const FileAtt&);
  for (const auto& [name, get] :
       {std::pair<const char*, Get>{"owner", [](const FileAtt& a) { return Value::Text(a.owner); }},
        {"size", [](const FileAtt& a) { return Value::Int8(a.size); }},
        {"mtime", [](const FileAtt& a) { return Value::MakeTimestamp(a.mtime); }},
        {"ctime", [](const FileAtt& a) { return Value::MakeTimestamp(a.ctime); }},
        {"atime", [](const FileAtt& a) { return Value::MakeTimestamp(a.atime); }}}) {
    registry_.RegisterNative(name, [=](std::span<const Value> args,
                                       EvalContext& ctx) -> Result<Value> {
      INV_ASSIGN_OR_RETURN(Oid file, ArgFileOid(args));
      INV_ASSIGN_OR_RETURN(const FileAtt att, att_of(file, ctx.snap));
      return get(att);
    });
  }
  registry_.RegisterNative("filetype", [=, this](std::span<const Value> args,
                                                 EvalContext& ctx) -> Result<Value> {
    INV_ASSIGN_OR_RETURN(Oid file, ArgFileOid(args));
    INV_ASSIGN_OR_RETURN(const FileAtt att, att_of(file, ctx.snap));
    INV_ASSIGN_OR_RETURN(TypeInfo * info, db_->catalog().GetTypeByOid(att.type));
    return Value::Text(info->name);
  });
  registry_.RegisterNative("dir", [this](std::span<const Value> args,
                                         EvalContext& ctx) -> Result<Value> {
    INV_ASSIGN_OR_RETURN(Oid file, ArgFileOid(args));
    INV_ASSIGN_OR_RETURN(std::string path, PathOf(file, ctx.snap));
    const size_t slash = path.rfind('/');
    // Text results go out through a named Result: GCC 12 reports a false
    // -Wfree-nonheap-object on the moved-from temporary of a direct
    // `return Value::Text(...)` here and in pathname and keywords.
    Result<Value> out(Value::Text(slash == 0 ? "/" : path.substr(0, slash)));
    return out;
  });
  registry_.RegisterNative("pathname", [this](std::span<const Value> args,
                                              EvalContext& ctx) -> Result<Value> {
    INV_ASSIGN_OR_RETURN(Oid file, ArgFileOid(args));
    INV_ASSIGN_OR_RETURN(std::string path, PathOf(file, ctx.snap));
    Result<Value> out(Value::Text(path));
    return out;
  });
  // Calendar mapping for the paper's month_of(file) = "April" idiom: the
  // simulated epoch is 1 January; months are 30 simulated days.
  registry_.RegisterNative("month_of", [=, this](std::span<const Value> args,
                                                 EvalContext& ctx) -> Result<Value> {
    INV_ASSIGN_OR_RETURN(Oid file, ArgFileOid(args));
    INV_ASSIGN_OR_RETURN(const FileAtt att, att_of(file, ctx.snap));
    constexpr uint64_t kMonthMicros = 30ull * 24 * 3600 * 1'000'000;
    const uint64_t month = (att.mtime / kMonthMicros) % 12;
    return Value::Text(kMonthNames[month]);
  });

  // Generic ASCII-document functions (Table 2).
  registry_.RegisterNative("linecount", [this](std::span<const Value> args,
                                               EvalContext& ctx) -> Result<Value> {
    INV_ASSIGN_OR_RETURN(Oid file, ArgFileOid(args));
    INV_ASSIGN_OR_RETURN(auto bytes, ReadWholeFile(file, ctx.snap));
    const int32_t lines = static_cast<int32_t>(
        std::count(bytes.begin(), bytes.end(), std::byte{'\n'}));
    return Value::Int4(lines);
  });
  registry_.RegisterNative("wordcount", [this](std::span<const Value> args,
                                               EvalContext& ctx) -> Result<Value> {
    INV_ASSIGN_OR_RETURN(Oid file, ArgFileOid(args));
    INV_ASSIGN_OR_RETURN(auto bytes, ReadWholeFile(file, ctx.snap));
    int32_t words = 0;
    bool in_word = false;
    for (std::byte b : bytes) {
      const bool space = std::isspace(static_cast<unsigned char>(b)) != 0;
      if (!space && !in_word) {
        ++words;
      }
      in_word = !space;
    }
    return Value::Int4(words);
  });
  // keywords(file): the distinct words of the document, space-joined, so that
  // the paper's query  where "RISC" in keywords(file)  works unchanged.
  registry_.RegisterNative("keywords", [this](std::span<const Value> args,
                                              EvalContext& ctx) -> Result<Value> {
    INV_ASSIGN_OR_RETURN(Oid file, ArgFileOid(args));
    INV_ASSIGN_OR_RETURN(auto bytes, ReadWholeFile(file, ctx.snap));
    const std::string text = BytesToText(bytes, 64 << 10);
    std::set<std::string> words;
    std::string word;
    for (char c : text) {
      if (std::isalnum(static_cast<unsigned char>(c))) {
        word.push_back(c);
      } else if (!word.empty()) {
        if (word.size() >= 3) {
          words.insert(word);
        }
        word.clear();
      }
    }
    if (word.size() >= 3) {
      words.insert(word);
    }
    std::string joined;
    for (const std::string& w : words) {
      if (!joined.empty()) {
        joined += ' ';
      }
      joined += w;
    }
    Result<Value> out(Value::Text(joined));
    return out;
  });

  // Catalog entries (pg_proc) for each builtin, created once.
  struct ProcDef {
    const char* name;
    TypeId rettype;
  };
  constexpr ProcDef kDefs[] = {
      {"owner", TypeId::kText},     {"size", TypeId::kInt8},
      {"mtime", TypeId::kTimestamp}, {"ctime", TypeId::kTimestamp},
      {"atime", TypeId::kTimestamp}, {"filetype", TypeId::kText},
      {"dir", TypeId::kText},       {"pathname", TypeId::kText},
      {"month_of", TypeId::kText},  {"linecount", TypeId::kInt4},
      {"wordcount", TypeId::kInt4}, {"keywords", TypeId::kText},
  };
  for (const ProcDef& def : kDefs) {
    if (!db_->catalog().GetFunction(def.name).ok()) {
      INV_RETURN_IF_ERROR(db_->catalog()
                              .DefineFunction(txn, def.name, def.rettype, 1,
                                              ProcLang::kNative, def.name)
                              .status());
    }
  }
  return Status::Ok();
}

}  // namespace invfs
