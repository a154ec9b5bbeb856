#include "src/query/executor.h"

#include <algorithm>
#include <set>

#include "src/obs/span.h"
#include "src/query/parser.h"
#include "src/query/virtual_tables.h"

namespace invfs {
namespace {

// Collect the range variables an expression references. Unqualified column
// refs contribute the empty string (meaning "unknown": evaluate late).
void CollectVars(const Expr& e, std::set<std::string>* out) {
  if (e.kind == ExprKind::kColumnRef) {
    out->insert(e.range_var);
    return;
  }
  for (const ExprPtr& a : e.args) {
    CollectVars(*a, out);
  }
}

// Split a predicate tree on top-level ANDs.
void SplitConjuncts(const Expr* e, std::vector<const Expr*>* out) {
  if (e->kind == ExprKind::kBinaryOp && e->name == "and") {
    SplitConjuncts(e->args[0].get(), out);
    SplitConjuncts(e->args[1].get(), out);
    return;
  }
  out->push_back(e);
}

struct BoundRange {
  RangeDecl decl;
  TableInfo* table = nullptr;
  Snapshot snap;
  Row current;
  // Virtual relations (invfs_stats, invfs_spans, ...): rows materialized
  // from an observability snapshot at bind time; no heap, no lock, no index.
  bool is_virtual = false;
  std::vector<Row> vrows;
};

// A version a statement read: its TID, row oid and row.
struct ReadRow {
  Tid tid;
  Oid oid;
  Row row;
};

// The versions of `table` visible under `snap` among those `index` holds
// under `key` (every one without an index), archive included, decoded
// (Database::VisitVersions). Its visitor runs under the page latch, so
// predicates, writes and nested ranges, each of which may pin pages, run on
// these copies after the visit.
Result<std::vector<ReadRow>> ReadRows(Database& db, const TableInfo* table,
                                      const IndexInfo* index, const BtreeKey& key,
                                      const Snapshot& snap) {
  std::vector<ReadRow> out;
  auto collect = [&](Tid tid, std::span<const std::byte> tuple) -> Result<bool> {
    INV_ASSIGN_OR_RETURN(Row row, DecodeTuple(table->schema, tuple));
    out.push_back(ReadRow{tid, GetTupleMeta(tuple).oid, std::move(row)});
    return false;
  };
  INV_RETURN_IF_ERROR(
      db.VisitVersions(table, index, key, Database::KeyMatch::kExact, snap, collect)
          .status());
  return out;
}

// The table `name` for a statement that writes it. The catalogs are refused:
// only the engine writes them, and a row it did not write, a null relid
// say, could leave the database unopenable.
Result<TableInfo*> WritableTable(Database& db, const std::string& name) {
  INV_ASSIGN_OR_RETURN(TableInfo * table, db.catalog().GetTable(name));
  if (table->oid < kFirstUserOid) {
    return Status::InvalidArgument("catalog " + name + " is written only by the engine");
  }
  return table;
}

// The versions of `table` visible to ctx.snap that pass `where` (every one
// without it), bound as range variable `var`. All are read before any is
// acted on, so a statement never sees its own writes (Halloween protection).
Result<std::vector<ReadRow>> Matches(Database& db, TableInfo* table, const std::string& var,
                                     const Expr* where, EvalContext& ctx) {
  INV_ASSIGN_OR_RETURN(std::vector<ReadRow> versions,
                       ReadRows(db, table, nullptr, BtreeKey{}, ctx.snap));
  std::vector<ReadRow> out;
  for (ReadRow& v : versions) {
    ctx.bindings[var] = EvalContext::Binding{table, &v.row};
    bool pass = true;
    if (where != nullptr) {
      INV_ASSIGN_OR_RETURN(pass, EvalPredicate(*where, ctx));
    }
    if (pass) {
      out.push_back(std::move(v));
    }
  }
  return out;
}

}  // namespace

std::string ResultSet::ToString() const {
  std::vector<size_t> widths(columns.size());
  std::vector<std::vector<std::string>> cells;
  for (size_t i = 0; i < columns.size(); ++i) {
    widths[i] = columns[i].size();
  }
  for (const Row& row : rows) {
    std::vector<std::string> line;
    for (size_t i = 0; i < row.size(); ++i) {
      line.push_back(row[i].ToString());
      if (i < widths.size()) {
        widths[i] = std::max(widths[i], line.back().size());
      }
    }
    cells.push_back(std::move(line));
  }
  std::string out;
  auto emit_row = [&](const std::vector<std::string>& line) {
    for (size_t i = 0; i < line.size(); ++i) {
      out += line[i];
      out.append(widths[i] >= line[i].size() ? widths[i] - line[i].size() + 2 : 2, ' ');
    }
    out += '\n';
  };
  emit_row(columns);
  emit_row(std::vector<std::string>());  // spacer
  for (const auto& line : cells) {
    emit_row(line);
  }
  out += '(';
  out += std::to_string(rows.size());
  out += " rows)\n";
  return out;
}

Result<Value> CoerceValue(const Value& v, TypeId t) {
  if (v.is_null() || v.HasType(t)) {
    return v;
  }
  switch (t) {
    case TypeId::kInt4: {
      INV_ASSIGN_OR_RETURN(int64_t x, v.ToInt64());
      if (x < INT32_MIN || x > INT32_MAX) {
        return Status::InvalidArgument("value out of int4 range");
      }
      return Value::Int4(static_cast<int32_t>(x));
    }
    case TypeId::kInt8: {
      INV_ASSIGN_OR_RETURN(int64_t x, v.ToInt64());
      return Value::Int8(x);
    }
    case TypeId::kOid: {
      INV_ASSIGN_OR_RETURN(int64_t x, v.ToInt64());
      if (x < 0 || x > UINT32_MAX) {
        return Status::InvalidArgument("value out of oid range");
      }
      return Value::MakeOid(static_cast<Oid>(x));
    }
    case TypeId::kTimestamp: {
      INV_ASSIGN_OR_RETURN(int64_t x, v.ToInt64());
      if (x < 0) {
        return Status::InvalidArgument("negative timestamp");
      }
      return Value::MakeTimestamp(static_cast<Timestamp>(x));
    }
    case TypeId::kFloat8: {
      INV_ASSIGN_OR_RETURN(double x, v.ToDouble());
      return Value::Float8(x);
    }
    default:
      return Status::InvalidArgument("cannot coerce " + v.ToString() + " to " +
                                     std::string(TypeName(t)));
  }
}

Executor::Executor(Database* db, FunctionRegistry* registry, ExecutorHooks hooks)
    : db_(db), registry_(registry), hooks_(std::move(hooks)) {
  plans_run_ = db_->metrics().GetCounter("query.plans_run");
  tuples_scanned_ = db_->metrics().GetCounter("query.tuples_scanned");
}

Result<ResultSet> Executor::ExecuteQuery(std::string_view text, TxnId txn) {
  INV_ASSIGN_OR_RETURN(Statement stmt, ParseStatement(text));
  return Execute(stmt, txn);
}

Result<ResultSet> Executor::Execute(const Statement& stmt, TxnId txn) {
  ScopedSpan span(&db_->metrics().spans(), "query.exec",
                  static_cast<uint64_t>(stmt.kind), txn);
  switch (stmt.kind) {
    case StmtKind::kRetrieve:
      return ExecRetrieve(stmt, txn);
    case StmtKind::kAppend:
      return ExecAppend(stmt, txn);
    case StmtKind::kReplace:
      return ExecReplace(stmt, txn);
    case StmtKind::kDelete:
      return ExecDelete(stmt, txn);
    case StmtKind::kCreate:
      return ExecCreate(stmt, txn);
    case StmtKind::kDefineType:
      return ExecDefineType(stmt, txn);
    case StmtKind::kDefineFunction:
      return ExecDefineFunction(stmt, txn);
    case StmtKind::kDefineIndex:
      return ExecDefineIndex(stmt, txn);
    case StmtKind::kDefineRule:
      if (!hooks_.on_define_rule) {
        return Status::Unimplemented("no rules engine attached");
      }
      INV_RETURN_IF_ERROR(hooks_.on_define_rule(stmt, txn));
      return ResultSet{};
    case StmtKind::kVacuum:
      if (!hooks_.on_vacuum) {
        return Status::Unimplemented("no vacuum cleaner attached");
      }
      INV_RETURN_IF_ERROR(WritableTable(*db_, stmt.table).status());
      INV_RETURN_IF_ERROR(hooks_.on_vacuum(stmt.table, txn));
      return ResultSet{};
  }
  return Status::Internal("unreachable statement kind");
}

Result<ResultSet> Executor::ExecRetrieve(const Statement& stmt, TxnId txn) {
  // Counted before range binding, so a SELECT over invfs_stats observes
  // itself (its own plan is part of the snapshot it reads).
  plans_run_->Add();
  // Resolve range declarations; infer them from qualified column refs when
  // the from-clause is omitted (POSTQUEL's implicit range variables).
  std::vector<RangeDecl> decls = stmt.from;
  if (decls.empty()) {
    std::set<std::string> vars;
    for (const TargetItem& t : stmt.targets) {
      CollectVars(*t.expr, &vars);
    }
    if (stmt.where) {
      CollectVars(*stmt.where, &vars);
    }
    for (const std::string& v : vars) {
      if (!v.empty()) {
        decls.push_back(RangeDecl{v, v, std::nullopt});
      }
    }
  }

  std::vector<BoundRange> ranges;
  for (const RangeDecl& decl : decls) {
    BoundRange r;
    r.decl = decl;
    if (IsVirtualTable(decl.table)) {
      if (decl.as_of.has_value()) {
        return Status::InvalidArgument("virtual relation " + decl.table +
                                       " does not support time travel");
      }
      r.table = VirtualTableInfo(decl.table);
      r.is_virtual = true;
      r.vrows = MaterializeVirtualTable(db_, decl.table);
      r.snap = db_->ReadSnapshot(txn);
      ranges.push_back(std::move(r));
      continue;  // no catalog entry, no table lock
    }
    if (decl.as_of.has_value()) {
      r.snap = db_->SnapshotAt(*decl.as_of);
      INV_ASSIGN_OR_RETURN(r.table, db_->catalog().GetTableAt(decl.table, r.snap));
    } else {
      r.snap = db_->ReadSnapshot(txn);
      INV_ASSIGN_OR_RETURN(r.table, db_->catalog().GetTable(decl.table));
    }
    // No shared table lock: retrieves run against the transaction's pinned
    // snapshot, so concurrent writers are invisible rather than excluded.
    // (A transaction that already wrote reads its live snapshot instead and
    // still holds its own exclusive locks.)
    ranges.push_back(std::move(r));
  }

  std::vector<const Expr*> conjuncts;
  if (stmt.where) {
    SplitConjuncts(stmt.where.get(), &conjuncts);
  }

  ResultSet result;
  for (const TargetItem& t : stmt.targets) {
    result.columns.push_back(t.alias);
  }

  EvalContext ctx;
  ctx.db = db_;
  ctx.txn = txn;
  ctx.snap = db_->ReadSnapshot(txn);
  ctx.registry = registry_;

  // Which conjuncts can be evaluated once variables 0..level are bound?
  // A conjunct with an unqualified (empty) var is evaluated at the innermost
  // level where all names are certainly in scope.
  auto eval_level = [&](const Expr* c) -> size_t {
    std::set<std::string> vars;
    CollectVars(*c, &vars);
    size_t level = 0;
    for (const std::string& v : vars) {
      if (v.empty()) {
        return ranges.empty() ? 0 : ranges.size() - 1;
      }
      for (size_t i = 0; i < ranges.size(); ++i) {
        if (ranges[i].decl.var == v) {
          level = std::max(level, i);
        }
      }
    }
    return level;
  };
  std::vector<std::vector<const Expr*>> level_filters(std::max<size_t>(1, ranges.size()));
  for (const Expr* c : conjuncts) {
    if (ranges.empty()) {
      level_filters[0].push_back(c);
    } else {
      level_filters[eval_level(c)].push_back(c);
    }
  }

  // For each level, find an index-equality access path:
  //   conjunct of shape  var.col = <expr over outer vars/constants>
  // with a single-column index on col.
  struct AccessPath {
    IndexInfo* index = nullptr;
    const Expr* key_expr = nullptr;  // evaluated in outer context
    size_t key_column = 0;
  };
  std::vector<AccessPath> paths(ranges.size());
  for (size_t i = 0; i < ranges.size(); ++i) {
    if (ranges[i].is_virtual) {
      continue;  // virtual relations have no indexes
    }
    for (const Expr* c : conjuncts) {
      if (c->kind != ExprKind::kBinaryOp || c->name != "=") {
        continue;
      }
      for (int side = 0; side < 2; ++side) {
        const Expr* col_side = c->args[side].get();
        const Expr* other = c->args[1 - side].get();
        if (col_side->kind != ExprKind::kColumnRef ||
            col_side->range_var != ranges[i].decl.var) {
          continue;
        }
        // `other` must reference only outer variables.
        std::set<std::string> vars;
        CollectVars(*other, &vars);
        bool outer_only = true;
        for (const std::string& v : vars) {
          bool is_outer = false;
          for (size_t j = 0; j < i; ++j) {
            if (ranges[j].decl.var == v) {
              is_outer = true;
            }
          }
          if (!is_outer) {
            outer_only = false;
          }
        }
        if (!outer_only) {
          continue;
        }
        auto col_idx = ranges[i].table->schema.ColumnIndex(col_side->column);
        if (!col_idx.ok()) {
          continue;
        }
        for (IndexInfo* idx : ranges[i].table->indexes) {
          if (idx->key_columns.size() == 1 && idx->key_columns[0] == *col_idx) {
            paths[i] = AccessPath{idx, other, *col_idx};
            break;
          }
        }
      }
      if (paths[i].index != nullptr) {
        break;
      }
    }
  }

  // Recursive nested-loop join.
  std::function<Status(size_t)> recurse = [&](size_t level) -> Status {
    if (level == ranges.size()) {
      if (ranges.empty()) {
        for (const Expr* c : level_filters[0]) {
          INV_ASSIGN_OR_RETURN(bool pass, EvalPredicate(*c, ctx));
          if (!pass) {
            return Status::Ok();
          }
        }
      }
      Row out;
      out.reserve(stmt.targets.size());
      for (const TargetItem& t : stmt.targets) {
        INV_ASSIGN_OR_RETURN(Value v, Eval(*t.expr, ctx));
        out.push_back(std::move(v));
      }
      result.rows.push_back(std::move(out));
      return Status::Ok();
    }
    BoundRange& r = ranges[level];
    auto emit = [&](Row row) -> Status {
      r.current = std::move(row);
      ctx.bindings[r.decl.var] = EvalContext::Binding{r.table, &r.current, &r.snap};
      for (const Expr* c : level_filters[level]) {
        INV_ASSIGN_OR_RETURN(bool pass, EvalPredicate(*c, ctx));
        if (!pass) {
          return Status::Ok();
        }
      }
      return recurse(level + 1);
    };

    if (r.is_virtual) {
      for (const Row& vrow : r.vrows) {
        INV_RETURN_IF_ERROR(emit(Row(vrow)));
      }
      return Status::Ok();
    }

    BtreeKey key;
    if (paths[level].index != nullptr) {
      INV_ASSIGN_OR_RETURN(Value key_val, Eval(*paths[level].key_expr, ctx));
      const TypeId col_type =
          r.table->schema.column(paths[level].key_column).type;
      INV_ASSIGN_OR_RETURN(Value coerced, CoerceValue(key_val, col_type));
      INV_ASSIGN_OR_RETURN(key, EncodeKey(std::span(&coerced, 1)));
    }
    INV_ASSIGN_OR_RETURN(std::vector<ReadRow> versions,
                         ReadRows(*db_, r.table, paths[level].index, key, r.snap));
    tuples_scanned_->Add(versions.size());
    for (ReadRow& v : versions) {
      INV_RETURN_IF_ERROR(emit(std::move(v.row)));
    }
    return Status::Ok();
  };
  INV_RETURN_IF_ERROR(recurse(0));
  return result;
}

Result<ResultSet> Executor::ExecAppend(const Statement& stmt, TxnId txn) {
  INV_ASSIGN_OR_RETURN(TableInfo * table, WritableTable(*db_, stmt.table));
  INV_RETURN_IF_ERROR(db_->LockTable(txn, table, LockMode::kExclusive));
  EvalContext ctx;
  ctx.db = db_;
  ctx.txn = txn;
  ctx.snap = db_->SnapshotFor(txn);
  ctx.registry = registry_;
  Row row(table->schema.num_columns(), Value::Null());
  for (const SetItem& set : stmt.sets) {
    INV_ASSIGN_OR_RETURN(size_t idx, table->schema.ColumnIndex(set.column));
    INV_ASSIGN_OR_RETURN(Value v, Eval(*set.expr, ctx));
    INV_ASSIGN_OR_RETURN(row[idx], CoerceValue(v, table->schema.column(idx).type));
  }
  INV_RETURN_IF_ERROR(db_->InsertRow(txn, table, row).status());
  return ResultSet{};
}

Result<ResultSet> Executor::ExecReplace(const Statement& stmt, TxnId txn) {
  INV_ASSIGN_OR_RETURN(TableInfo * table, WritableTable(*db_, stmt.table));
  INV_RETURN_IF_ERROR(db_->LockTable(txn, table, LockMode::kExclusive));
  EvalContext ctx;
  ctx.db = db_;
  ctx.txn = txn;
  ctx.snap = db_->SnapshotFor(txn);
  ctx.registry = registry_;

  INV_ASSIGN_OR_RETURN(std::vector<ReadRow> matches,
                       Matches(*db_, table, stmt.table, stmt.where.get(), ctx));
  for (ReadRow& m : matches) {
    Row updated = m.row;
    ctx.bindings[stmt.table] = EvalContext::Binding{table, &m.row};
    for (const SetItem& set : stmt.sets) {
      INV_ASSIGN_OR_RETURN(size_t idx, table->schema.ColumnIndex(set.column));
      INV_ASSIGN_OR_RETURN(Value v, Eval(*set.expr, ctx));
      INV_ASSIGN_OR_RETURN(updated[idx],
                           CoerceValue(v, table->schema.column(idx).type));
    }
    INV_RETURN_IF_ERROR(db_->ReplaceRow(txn, table, m.tid, updated, m.oid).status());
  }
  ResultSet rs;
  rs.columns = {"replaced"};
  rs.rows.push_back({Value::Int8(static_cast<int64_t>(matches.size()))});
  return rs;
}

Result<ResultSet> Executor::ExecDelete(const Statement& stmt, TxnId txn) {
  INV_ASSIGN_OR_RETURN(TableInfo * table, WritableTable(*db_, stmt.table));
  INV_RETURN_IF_ERROR(db_->LockTable(txn, table, LockMode::kExclusive));
  EvalContext ctx;
  ctx.db = db_;
  ctx.txn = txn;
  ctx.snap = db_->SnapshotFor(txn);
  ctx.registry = registry_;
  INV_ASSIGN_OR_RETURN(std::vector<ReadRow> doomed,
                       Matches(*db_, table, stmt.table, stmt.where.get(), ctx));
  for (const ReadRow& v : doomed) {
    INV_RETURN_IF_ERROR(db_->DeleteRow(txn, table, v.tid));
  }
  ResultSet rs;
  rs.columns = {"deleted"};
  rs.rows.push_back({Value::Int8(static_cast<int64_t>(doomed.size()))});
  return rs;
}

Result<ResultSet> Executor::ExecCreate(const Statement& stmt, TxnId txn) {
  std::vector<Column> cols;
  for (const auto& [name, type_name] : stmt.columns) {
    INV_ASSIGN_OR_RETURN(TypeId type, TypeFromName(type_name));
    cols.push_back(Column{name, type});
  }
  INV_RETURN_IF_ERROR(db_->catalog()
                          .CreateTable(txn, stmt.table, Schema(std::move(cols)),
                                       kDeviceMagneticDisk)
                          .status());
  return ResultSet{};
}

Result<ResultSet> Executor::ExecDefineType(const Statement& stmt, TxnId txn) {
  INV_RETURN_IF_ERROR(db_->catalog().DefineType(txn, stmt.name).status());
  return ResultSet{};
}

Result<ResultSet> Executor::ExecDefineFunction(const Statement& stmt, TxnId txn) {
  INV_ASSIGN_OR_RETURN(TypeId rettype, TypeFromName(stmt.rettype));
  ProcLang lang;
  if (stmt.lang == "native") {
    lang = ProcLang::kNative;
    if (!registry_->Has(stmt.src)) {
      return Status::NotFound("native function body '" + stmt.src +
                              "' is not loaded; register it first");
    }
  } else if (stmt.lang == "postquel") {
    lang = ProcLang::kPostquel;
    // Validate the body parses now, not at first call.
    INV_RETURN_IF_ERROR(ParseExpression(stmt.src).status());
  } else {
    return Status::InvalidArgument("unknown function language " + stmt.lang);
  }
  INV_RETURN_IF_ERROR(
      db_->catalog()
          .DefineFunction(txn, stmt.name, rettype, stmt.nargs, lang, stmt.src)
          .status());
  return ResultSet{};
}

Result<ResultSet> Executor::ExecDefineIndex(const Statement& stmt, TxnId txn) {
  INV_ASSIGN_OR_RETURN(TableInfo * table, db_->catalog().GetTable(stmt.table));
  INV_ASSIGN_OR_RETURN(size_t col, table->schema.ColumnIndex(stmt.index_column));
  INV_RETURN_IF_ERROR(db_->LockTable(txn, table, LockMode::kExclusive));
  INV_RETURN_IF_ERROR(db_->catalog().CreateIndex(txn, table, {col}).status());
  return ResultSet{};
}

}  // namespace invfs
