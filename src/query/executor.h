// Query executor: nested-loop joins over sequential or index scans, with
// predicate evaluation, projection, and DML/DDL statement execution.
//
// Planning is deliberately simple (POSTGRES 4.0.1 era): for each range
// variable the executor picks an index scan when the qualification contains
// an equality on a single-column B-tree index whose other side is computable
// from already-bound range variables; otherwise it sequential-scans.
// Historical range variables (time-travel brackets) scan heap + archive.
// A sequential scan reads the range's visible rows (Heap::VisitEach) before
// its filters run, so a query holds one relation's rows per join level.

#pragma once

#include <functional>
#include <string>
#include <vector>

#include "src/catalog/database.h"
#include "src/query/ast.h"
#include "src/query/eval.h"
#include "src/query/function_registry.h"
#include "src/util/status.h"

namespace invfs {

struct ResultSet {
  std::vector<std::string> columns;
  std::vector<Row> rows;

  std::string ToString() const;  // aligned text table for examples/monitor
};

// Statements the executor delegates upward (avoids layering cycles: the rules
// engine and vacuum cleaner sit above the query module).
struct ExecutorHooks {
  std::function<Status(const Statement&, TxnId)> on_define_rule;
  std::function<Status(const std::string& table, TxnId)> on_vacuum;
};

// Coerce `v` to column type `t` (integer width widening/narrowing, oid and
// timestamp from integers, int to float). Identity when already right.
Result<Value> CoerceValue(const Value& v, TypeId t);

class Executor {
 public:
  Executor(Database* db, FunctionRegistry* registry, ExecutorHooks hooks = {});

  Result<ResultSet> Execute(const Statement& stmt, TxnId txn);
  // Parse + execute one statement.
  Result<ResultSet> ExecuteQuery(std::string_view text, TxnId txn);

  FunctionRegistry* registry() { return registry_; }

 private:
  Result<ResultSet> ExecRetrieve(const Statement& stmt, TxnId txn);
  Result<ResultSet> ExecAppend(const Statement& stmt, TxnId txn);
  Result<ResultSet> ExecReplace(const Statement& stmt, TxnId txn);
  Result<ResultSet> ExecDelete(const Statement& stmt, TxnId txn);
  Result<ResultSet> ExecCreate(const Statement& stmt, TxnId txn);
  Result<ResultSet> ExecDefineType(const Statement& stmt, TxnId txn);
  Result<ResultSet> ExecDefineFunction(const Statement& stmt, TxnId txn);
  Result<ResultSet> ExecDefineIndex(const Statement& stmt, TxnId txn);

  Database* db_;
  FunctionRegistry* registry_;
  ExecutorHooks hooks_;
  // query.* metrics (in db_'s registry): retrieves executed, and heap/index
  // tuples fetched by them (virtual-table rows excluded, so a query over
  // invfs_stats does not perturb the counters it reports).
  Counter* plans_run_;
  Counter* tuples_scanned_;
};

}  // namespace invfs
