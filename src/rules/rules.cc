#include "src/rules/rules.h"

#include "src/query/ast_print.h"
#include "src/query/eval.h"
#include "src/query/parser.h"

namespace invfs {
namespace {

Schema PgRuleSchema() {
  return Schema{{"rulename", TypeId::kText},
                {"ruletable", TypeId::kText},
                {"rulepred", TypeId::kText},
                {"ruleaction", TypeId::kText},
                {"ruledevice", TypeId::kInt4}};
}

}  // namespace

RuleEngine::RuleEngine(Database* db, FunctionRegistry* registry)
    : db_(db), registry_(registry) {}

Result<TableInfo*> RuleEngine::RuleTable(TxnId txn) {
  auto existing = db_->catalog().GetTable("pg_rule");
  if (existing.ok()) {
    return existing;
  }
  return db_->catalog().CreateTable(txn, "pg_rule", PgRuleSchema(),
                                    kDeviceMagneticDisk);
}

Status RuleEngine::Load() {
  auto table = db_->catalog().GetTable("pg_rule");
  if (!table.ok()) {
    return Status::Ok();  // no rules defined yet
  }
  const Snapshot snap{kTimestampNow, kInvalidTxn, &db_->txns().log(), nullptr};
  return (*table)->heap->VisitEach(snap, [&](Tid, auto tuple) -> Result<bool> {
    INV_ASSIGN_OR_RETURN(const Row r, DecodeTuple((*table)->schema, tuple));
    Rule rule;
    rule.name = r[0].AsText();
    rule.table = r[1].AsText();
    rule.predicate_src = r[2].AsText();
    rule.action = r[3].AsText();
    rule.target_device = static_cast<DeviceId>(r[4].AsInt4());
    INV_ASSIGN_OR_RETURN(rule.predicate, ParseExpression(rule.predicate_src));
    rules_.push_back(std::move(rule));
    return false;
  });
}

Status RuleEngine::DefineMigrationRule(TxnId txn, const std::string& name,
                                       const std::string& table,
                                       const std::string& predicate_src,
                                       DeviceId device) {
  for (const Rule& r : rules_) {
    if (r.name == name) {
      return Status::AlreadyExists("rule " + name);
    }
  }
  if (!db_->devices().Has(device)) {
    return Status::InvalidArgument("no device " + std::to_string(device));
  }
  INV_RETURN_IF_ERROR(db_->catalog().GetTable(table).status());
  Rule rule;
  rule.name = name;
  rule.table = table;
  rule.predicate_src = predicate_src;
  rule.action = "migrate";
  rule.target_device = device;
  INV_ASSIGN_OR_RETURN(rule.predicate, ParseExpression(predicate_src));

  INV_ASSIGN_OR_RETURN(TableInfo * rule_table, RuleTable(txn));
  Row row{Value::Text(name), Value::Text(table), Value::Text(predicate_src),
          Value::Text("migrate"), Value::Int4(static_cast<int32_t>(device))};
  INV_RETURN_IF_ERROR(db_->InsertRow(txn, rule_table, row).status());
  rules_.push_back(std::move(rule));
  return Status::Ok();
}

Status RuleEngine::DefineFromStatement(const Statement& stmt, TxnId txn) {
  if (stmt.rule_action != "migrate") {
    return Status::Unimplemented("only 'do migrate <device>' rules are supported");
  }
  if (stmt.where == nullptr) {
    return Status::InvalidArgument("rule requires a where clause");
  }
  return DefineMigrationRule(txn, stmt.name, stmt.table, ExprToString(*stmt.where),
                             static_cast<DeviceId>(stmt.rule_device));
}

Status RuleEngine::DropRule(TxnId txn, const std::string& name) {
  auto it = std::find_if(rules_.begin(), rules_.end(),
                         [&](const Rule& r) { return r.name == name; });
  if (it == rules_.end()) {
    return Status::NotFound("rule " + name);
  }
  INV_ASSIGN_OR_RETURN(TableInfo * rule_table, RuleTable(txn));
  std::vector<Tid> doomed;
  INV_RETURN_IF_ERROR(rule_table->heap->VisitEach(
      db_->SnapshotFor(txn), [&](Tid tid, auto tuple) -> Result<bool> {
        INV_ASSIGN_OR_RETURN(const Row row, DecodeTuple(rule_table->schema, tuple));
        if (row[0].AsText() == name) {
          doomed.push_back(tid);
        }
        return false;
      }));
  for (Tid tid : doomed) {
    INV_RETURN_IF_ERROR(db_->DeleteRow(txn, rule_table, tid));
  }
  rules_.erase(it);
  return Status::Ok();
}

Result<int> RuleEngine::ApplyRules(TxnId txn) {
  int fired = 0;
  for (const Rule& rule : rules_) {
    auto table = db_->catalog().GetTable(rule.table);
    if (!table.ok()) {
      continue;  // table dropped since the rule was defined
    }
    // The match scan is lock-free: it runs against the transaction's pinned
    // (or, once written, live) snapshot. Actions that modify rows take their
    // own exclusive locks.
    EvalContext ctx;
    ctx.db = db_;
    ctx.txn = txn;
    ctx.snap = db_->ReadSnapshot(txn);
    ctx.registry = registry_;

    // Materialize the rows before evaluating the predicate (it may call file
    // functions that pin pages, which a visitor under the page latch must
    // not) and before firing actions (they may update the table read, e.g.
    // fileatt's device column).
    std::vector<Row> rows;
    INV_RETURN_IF_ERROR((*table)->heap->VisitEach(ctx.snap, [&](Tid, auto tuple) -> Result<bool> {
      INV_ASSIGN_OR_RETURN(rows.emplace_back(), DecodeTuple((*table)->schema, tuple));
      return false;
    }));
    std::vector<Row> matches;
    for (Row& row : rows) {
      ctx.bindings[rule.table] = EvalContext::Binding{*table, &row};
      INV_ASSIGN_OR_RETURN(bool pass, EvalPredicate(*rule.predicate, ctx));
      if (pass) {
        matches.push_back(std::move(row));
      }
    }

    for (const Row& row : matches) {
      if (rule.action == "migrate" && migrate_) {
        INV_ASSIGN_OR_RETURN(bool acted, migrate_(txn, *table, row, rule.target_device));
        if (acted) {
          ++fired;
        }
      }
    }
  }
  return fired;
}

}  // namespace invfs
