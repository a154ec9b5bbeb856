// Unit tests: POSTQUEL lexer, parser, expression evaluator, and executor.

#include <gtest/gtest.h>

#include <set>

#include "src/query/ast_print.h"
#include "src/query/eval.h"
#include "src/query/executor.h"
#include "src/query/lexer.h"
#include "src/query/parser.h"
#include "tests/heap_rows.h"

namespace invfs {
namespace {

// ---------------------------------------------------------------- lexer

TEST(Lexer, TokenKinds) {
  auto toks = Lex("retrieve (x.y) where a = \"str\" and b >= 3.5 or c != $2");
  ASSERT_TRUE(toks.ok());
  std::vector<TokKind> kinds;
  for (const Token& t : *toks) {
    kinds.push_back(t.kind);
  }
  EXPECT_EQ(kinds.front(), TokKind::kIdent);
  EXPECT_EQ(kinds.back(), TokKind::kEnd);
  // Spot checks.
  EXPECT_EQ((*toks)[1].text, "(");
  EXPECT_EQ((*toks)[3].text, ".");
  int strings = 0, floats = 0, params = 0;
  for (const Token& t : *toks) {
    strings += t.kind == TokKind::kString;
    floats += t.kind == TokKind::kFloat;
    params += t.kind == TokKind::kParam;
  }
  EXPECT_EQ(strings, 1);
  EXPECT_EQ(floats, 1);
  EXPECT_EQ(params, 1);
}

TEST(Lexer, TwoCharOperators) {
  auto toks = Lex("a != b <= c >= d");
  ASSERT_TRUE(toks.ok());
  EXPECT_EQ((*toks)[1].text, "!=");
  EXPECT_EQ((*toks)[3].text, "<=");
  EXPECT_EQ((*toks)[5].text, ">=");
}

TEST(Lexer, StringEscapes) {
  auto toks = Lex("\"a\\\"b\"");
  ASSERT_TRUE(toks.ok());
  EXPECT_EQ((*toks)[0].text, "a\"b");
}

TEST(Lexer, RejectsGarbage) {
  EXPECT_FALSE(Lex("a # b").ok());
  EXPECT_FALSE(Lex("\"unterminated").ok());
  EXPECT_FALSE(Lex("$x").ok());
}

// ---------------------------------------------------------------- parser

TEST(Parser, RetrieveFull) {
  auto stmt = ParseStatement(
      "retrieve (n.filename, sz = size(n.file)) from n in naming, f in fileatt "
      "where n.file = f.file and f.size > 100");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  EXPECT_EQ(stmt->kind, StmtKind::kRetrieve);
  ASSERT_EQ(stmt->targets.size(), 2u);
  EXPECT_EQ(stmt->targets[0].alias, "filename");
  EXPECT_EQ(stmt->targets[1].alias, "sz");
  ASSERT_EQ(stmt->from.size(), 2u);
  EXPECT_EQ(stmt->from[0].var, "n");
  EXPECT_EQ(stmt->from[1].table, "fileatt");
  ASSERT_NE(stmt->where, nullptr);
}

TEST(Parser, TimeTravelBracket) {
  auto stmt = ParseStatement("retrieve (n.filename) from n in naming[\"12345\"]");
  ASSERT_TRUE(stmt.ok());
  ASSERT_TRUE(stmt->from[0].as_of.has_value());
  EXPECT_EQ(*stmt->from[0].as_of, 12345u);
  auto stmt2 = ParseStatement("retrieve (n.filename) from n in naming[777]");
  ASSERT_TRUE(stmt2.ok());
  EXPECT_EQ(*stmt2->from[0].as_of, 777u);
}

TEST(Parser, AppendReplaceDelete) {
  auto append = ParseStatement("append t (a = 1, b = \"x\")");
  ASSERT_TRUE(append.ok());
  EXPECT_EQ(append->kind, StmtKind::kAppend);
  EXPECT_EQ(append->sets.size(), 2u);

  auto replace = ParseStatement("replace t (a = t.a + 1) where t.b = \"x\"");
  ASSERT_TRUE(replace.ok());
  EXPECT_EQ(replace->kind, StmtKind::kReplace);

  auto del = ParseStatement("delete t where t.a < 0");
  ASSERT_TRUE(del.ok());
  EXPECT_EQ(del->kind, StmtKind::kDelete);
}

TEST(Parser, DdlStatements) {
  auto create = ParseStatement("create t (a = int4, b = text)");
  ASSERT_TRUE(create.ok());
  EXPECT_EQ(create->columns.size(), 2u);
  EXPECT_TRUE(ParseStatement("define type movie").ok());
  EXPECT_TRUE(ParseStatement(
                  "define function f (2) returns int4 as postquel \"$1 + $2\"")
                  .ok());
  EXPECT_TRUE(ParseStatement("define index on t (a)").ok());
  EXPECT_TRUE(ParseStatement("vacuum t").ok());
  auto rule = ParseStatement(
      "define rule r on fileatt where fileatt.size > 100 do migrate 2");
  ASSERT_TRUE(rule.ok());
  EXPECT_EQ(rule->rule_device, 2);
}

TEST(Parser, Precedence) {
  // a = 1 or b = 2 and c = 3  ->  or(a=1, and(b=2, c=3))
  auto e = ParseExpression("a = 1 or b = 2 and c = 3");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ((*e)->name, "or");
  EXPECT_EQ((*e)->args[1]->name, "and");
  // 1 + 2 * 3 -> +(1, *(2,3))
  auto arith = ParseExpression("1 + 2 * 3");
  ASSERT_TRUE(arith.ok());
  EXPECT_EQ((*arith)->name, "+");
  EXPECT_EQ((*arith)->args[1]->name, "*");
}

TEST(Parser, SyntaxErrorsAreStatusesNotCrashes) {
  EXPECT_FALSE(ParseStatement("retrieve").ok());
  EXPECT_FALSE(ParseStatement("retrieve (a").ok());
  EXPECT_FALSE(ParseStatement("frobnicate x").ok());
  EXPECT_FALSE(ParseStatement("append t").ok());
  EXPECT_FALSE(ParseStatement("retrieve (a) from x naming").ok());
  EXPECT_FALSE(ParseStatement("define rule r on t where 1 do shred").ok());
  EXPECT_FALSE(ParseExpression("1 +").ok());
}

TEST(AstPrint, RoundtripsThroughParser) {
  const char* exprs[] = {
      "(a.b = 3)",
      "((size(f.file) / 2) > 100)",
      "((x and y) or (not z))",
      "(\"RISC\" in keywords(file))",
  };
  for (const char* src : exprs) {
    auto e = ParseExpression(src);
    ASSERT_TRUE(e.ok()) << src;
    auto printed = ExprToString(**e);
    auto reparsed = ParseExpression(printed);
    ASSERT_TRUE(reparsed.ok()) << printed;
    EXPECT_EQ(ExprToString(**reparsed), printed);
  }
}

// ------------------------------------------------------------- evaluator

class EvalTest : public ::testing::Test {
 protected:
  Result<Value> Run(const std::string& src) {
    auto e = ParseExpression(src);
    if (!e.ok()) {
      return e.status();
    }
    EvalContext ctx;
    ctx.registry = &registry_;
    return Eval(**e, ctx);
  }
  FunctionRegistry registry_;
};

TEST_F(EvalTest, Arithmetic) {
  EXPECT_EQ(Run("1 + 2 * 3")->AsInt8(), 7);
  EXPECT_EQ(Run("10 - 4 - 3")->AsInt8(), 3);
  EXPECT_EQ(Run("7 / 2")->AsFloat8(), 3.5) << "inexact int division promotes";
  EXPECT_EQ(Run("8 / 2")->AsInt8(), 4);
  EXPECT_EQ(Run("2.5 * 2")->AsFloat8(), 5.0);
  EXPECT_EQ(Run("-(3)")->AsInt8(), -3);
  EXPECT_FALSE(Run("1 / 0").ok());
}

TEST_F(EvalTest, ComparisonsAndLogic) {
  EXPECT_TRUE(Run("1 < 2")->AsBool());
  EXPECT_TRUE(Run("\"abc\" = \"abc\"")->AsBool());
  EXPECT_TRUE(Run("\"ab\" != \"abc\"")->AsBool());
  EXPECT_TRUE(Run("1 < 2 and 2 < 3")->AsBool());
  EXPECT_TRUE(Run("1 > 2 or 3 > 2")->AsBool());
  EXPECT_TRUE(Run("not (1 > 2)")->AsBool());
  EXPECT_FALSE(Run("\"a\" < 3").ok()) << "text/number comparison is a type error";
}

TEST_F(EvalTest, SubstringIn) {
  EXPECT_TRUE(Run("\"RISC\" in \"RISC processors are fast\"")->AsBool());
  EXPECT_FALSE(Run("\"CISC\" in \"RISC only\"")->AsBool());
  EXPECT_FALSE(Run("1 in \"123\"").ok());
}

TEST_F(EvalTest, NullPropagation) {
  EXPECT_TRUE(Run("null + 1")->is_null());
  EXPECT_TRUE(Run("null = null")->is_null());
  EXPECT_FALSE(Run("null and true")->AsBool()) << "null is falsy in boolean position";
}

TEST_F(EvalTest, NativeFunctionDispatch) {
  registry_.RegisterNative("triple",
                           [](std::span<const Value> args, EvalContext&) -> Result<Value> {
                             return Value::Int8(*args[0].ToInt64() * 3);
                           });
  EXPECT_EQ(Run("triple(14)")->AsInt8(), 42);
  EXPECT_TRUE(Run("no_such_fn(1)").status().IsNotFound());
}

// -------------------------------------------------------------- executor

class ExecutorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto db = Database::Open(&env_);
    ASSERT_TRUE(db.ok());
    db_ = std::move(*db);
    exec_ = std::make_unique<Executor>(db_.get(), &registry_);
    Exec("create emp (name = text, salary = int4, dept = text)");
    Exec("append emp (name = \"alice\", salary = 100, dept = \"db\")");
    Exec("append emp (name = \"bob\", salary = 80, dept = \"os\")");
    Exec("append emp (name = \"carol\", salary = 120, dept = \"db\")");
  }

  ResultSet Exec(const std::string& text) {
    auto txn = db_->Begin();
    EXPECT_TRUE(txn.ok());
    auto rs = exec_->ExecuteQuery(text, *txn);
    EXPECT_TRUE(rs.ok()) << text << " -> " << rs.status().ToString();
    EXPECT_TRUE(db_->Commit(*txn).ok());
    return rs.ok() ? *rs : ResultSet{};
  }

  Status ExecExpectError(const std::string& text) {
    auto txn = db_->Begin();
    EXPECT_TRUE(txn.ok());
    auto rs = exec_->ExecuteQuery(text, *txn);
    EXPECT_FALSE(rs.ok()) << text;
    (void)db_->Abort(*txn);
    return rs.status();
  }

  StorageEnv env_;
  std::unique_ptr<Database> db_;
  FunctionRegistry registry_;
  std::unique_ptr<Executor> exec_;
};

TEST_F(ExecutorTest, RetrieveWithFilterAndProjection) {
  auto rs = Exec("retrieve (e.name) from e in emp where e.salary > 90");
  ASSERT_EQ(rs.rows.size(), 2u);
}

TEST_F(ExecutorTest, RetrieveComputedTargets) {
  auto rs = Exec(
      "retrieve (e.name, doubled = e.salary * 2) from e in emp "
      "where e.name = \"bob\"");
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_EQ(rs.columns[1], "doubled");
  EXPECT_EQ(rs.rows[0][1].AsInt8(), 160);
}

TEST_F(ExecutorTest, ImplicitRangeVariable) {
  // POSTQUEL allowed using the table name directly.
  auto rs = Exec("retrieve (emp.name) where emp.dept = \"os\"");
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_EQ(rs.rows[0][0].AsText(), "bob");
}

TEST_F(ExecutorTest, JoinTwoTables) {
  Exec("create dept (dname = text, floor = int4)");
  Exec("append dept (dname = \"db\", floor = 3)");
  Exec("append dept (dname = \"os\", floor = 4)");
  auto rs = Exec(
      "retrieve (e.name, d.floor) from e in emp, d in dept "
      "where e.dept = d.dname and d.floor = 3");
  ASSERT_EQ(rs.rows.size(), 2u);
}

TEST_F(ExecutorTest, IndexAcceleratedEquality) {
  Exec("define index on emp (salary)");
  auto rs = Exec("retrieve (e.name) from e in emp where e.salary = 120");
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_EQ(rs.rows[0][0].AsText(), "carol");
  // And non-equality still works (falls back to scan).
  auto rs2 = Exec("retrieve (e.name) from e in emp where e.salary < 100");
  ASSERT_EQ(rs2.rows.size(), 1u);
}

TEST_F(ExecutorTest, ReplaceUpdatesMatchingRows) {
  auto rs = Exec("replace emp (salary = emp.salary + 10) where emp.dept = \"db\"");
  EXPECT_EQ(rs.rows[0][0].AsInt8(), 2);
  auto check = Exec("retrieve (e.salary) from e in emp where e.name = \"alice\"");
  ASSERT_EQ(check.rows.size(), 1u);
  EXPECT_EQ(check.rows[0][0].AsInt4(), 110);
}

TEST_F(ExecutorTest, DeleteRemovesVisibly) {
  Exec("delete emp where emp.name = \"bob\"");
  auto rs = Exec("retrieve (e.name) from e in emp");
  EXPECT_EQ(rs.rows.size(), 2u);
}

TEST_F(ExecutorTest, TimeTravelBracketSeesThePast) {
  const Timestamp before = db_->Now();
  Exec("delete emp where emp.name = \"alice\"");
  auto now_rs = Exec("retrieve (e.name) from e in emp where e.name = \"alice\"");
  EXPECT_TRUE(now_rs.rows.empty());
  auto then_rs = Exec("retrieve (e.name) from e in emp[" + std::to_string(before) +
                      "] where e.name = \"alice\"");
  EXPECT_EQ(then_rs.rows.size(), 1u);
}

TEST_F(ExecutorTest, PostquelLanguageFunction) {
  Exec("define function raise (1) returns int8 as postquel \"$1 * 110 / 100\"");
  auto rs = Exec("retrieve (e.name, next = raise(e.salary)) from e in emp "
                 "where e.name = \"carol\"");
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_EQ(rs.rows[0][1].AsInt8(), 132);
}

TEST_F(ExecutorTest, AppendCoercesTypes) {
  Exec("create wide (big = int8, ts = time)");
  Exec("append wide (big = 5, ts = 123)");  // int4 literals coerced
  auto rs = Exec("retrieve (w.big, w.ts) from w in wide");
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_EQ(rs.rows[0][0].AsInt8(), 5);
  EXPECT_EQ(rs.rows[0][1].AsTimestamp(), 123u);
}

TEST_F(ExecutorTest, ErrorsSurfaceCleanly) {
  EXPECT_TRUE(ExecExpectError("retrieve (e.name) from e in nonexistent").IsNotFound());
  EXPECT_TRUE(ExecExpectError("retrieve (e.nocolumn) from e in emp").IsNotFound());
  EXPECT_FALSE(ExecExpectError("append emp (bogus = 1)").ok());
  EXPECT_FALSE(
      ExecExpectError("define function bad (1) returns int4 as native \"missing\"")
          .ok());
}

// POSTQUEL writes no catalog: `append pg_class (relname = "zz")` once stored
// a row with a null relid, and the next Database::Open threw on it.
TEST_F(ExecutorTest, WritesToCatalogsAreRefused) {
  ExecutorHooks hooks;
  hooks.on_vacuum = [](const std::string& table, TxnId) {
    ADD_FAILURE() << "vacuum reached the hook for " << table;
    return Status::Ok();
  };
  exec_ = std::make_unique<Executor>(db_.get(), &registry_, std::move(hooks));
  for (const char* text : {"append pg_class (relname = \"zz\")",
                           "replace pg_class (relname = \"zz\")",
                           "delete pg_class where pg_class.relname = \"emp\"",
                           "vacuum pg_class"}) {
    EXPECT_EQ(ExecExpectError(text).code(), ErrorCode::kInvalidArgument) << text;
  }
  ASSERT_TRUE(db_->FlushCaches().ok());
  exec_.reset();
  db_.reset();
  auto db = Database::Open(&env_);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  db_ = std::move(*db);
  exec_ = std::make_unique<Executor>(db_.get(), &registry_);
  EXPECT_EQ(Exec("retrieve (e.name) from e in emp").rows.size(), 3u);
}

// A catalog row with a null column is corruption when the database opens,
// not a crash.
TEST_F(ExecutorTest, NullCatalogColumnIsCorruptionAtOpen) {
  auto txn = db_->Begin();
  ASSERT_TRUE(txn.ok());
  ASSERT_TRUE(db_->catalog()
                  .pg_class()
                  ->Insert(*txn, {Value::Text("zz"), Value::Null(), Value::Int4(0),
                                  Value::Int4(0)})
                  .ok());
  ASSERT_TRUE(db_->Commit(*txn).ok());
  ASSERT_TRUE(db_->FlushCaches().ok());
  exec_.reset();
  db_.reset();
  auto db = Database::Open(&env_);
  ASSERT_FALSE(db.ok());
  EXPECT_EQ(db.status().code(), ErrorCode::kCorruption) << db.status().ToString();
}

TEST_F(ExecutorTest, UncommittedDmlInvisibleToOthers) {
  auto writer = db_->Begin();
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(
      exec_->ExecuteQuery("append emp (name = \"dave\", salary = 1, dept = \"x\")",
                          *writer)
          .ok());
  // A second transaction must not see dave yet... but it would block on the
  // table lock under strict 2PL, so check via a snapshot directly.
  Snapshot outsider{kTimestampNow, kInvalidTxn, &db_->txns().log(), nullptr};
  auto table = db_->catalog().GetTable("emp");
  ASSERT_TRUE(table.ok());
  auto rows = HeapRows(*(*table)->heap, outsider);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 3u);
  ASSERT_TRUE(db_->Commit(*writer).ok());
}

TEST_F(ExecutorTest, ResultSetFormatting) {
  auto rs = Exec("retrieve (e.name) from e in emp where e.name = \"alice\"");
  const std::string text = rs.ToString();
  EXPECT_NE(text.find("name"), std::string::npos);
  EXPECT_NE(text.find("alice"), std::string::npos);
  EXPECT_NE(text.find("(1 rows)"), std::string::npos);
}

// ------------------------------------------------- virtual stats tables

// SELECT over invfs_stats after a known workload must return exact live
// counts: fixture SetUp runs only DML/DDL (never counted), so the retrieves
// issued here are the whole history of query.* metrics.
TEST_F(ExecutorTest, InvfsStatsReturnsExactQueryCounters) {
  // Two ordinary retrieves: emp holds 3 tuples, each sequential scan reads
  // all of them. After these, plans_run = 2 and tuples_scanned = 6.
  Exec("retrieve (e.name) from e in emp");
  Exec("retrieve (e.name) from e in emp where e.salary > 90");

  // plans_run is bumped before range binding, so the stats query observes
  // itself: it is the 3rd plan.
  auto rs = Exec(
      "retrieve (s.value) from s in invfs_stats "
      "where s.name = \"query.plans_run\"");
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_EQ(rs.rows[0][0].AsInt8(), 3);

  // Virtual rows are excluded from tuples_scanned, so it is still exactly 6.
  rs = Exec(
      "retrieve (s.value) from s in invfs_stats "
      "where s.name = \"query.tuples_scanned\"");
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_EQ(rs.rows[0][0].AsInt8(), 6);
}

TEST_F(ExecutorTest, InvfsStatsExposesStorageCounters) {
  // The fixture's create/append workload must have gone through the buffer
  // pool and transaction manager; their counters surface with kind tags.
  auto rs = Exec(
      "retrieve (s.name, s.kind, s.value) from s in invfs_stats "
      "where s.name = \"txn.commits\"");
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_EQ(rs.rows[0][1].AsText(), "counter");
  EXPECT_GT(rs.rows[0][2].AsInt8(), 0);

  rs = Exec(
      "retrieve (s.value) from s in invfs_stats "
      "where s.name = \"buffer.hits\"");
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_EQ(rs.rows[0][0].AsInt8(),
            static_cast<int64_t>(db_->buffers().hits()));
}

TEST_F(ExecutorTest, InvfsSpansShowsCommittedTransactions) {
  // Every Exec() in the fixture began and committed a transaction; each
  // commit left a txn.commit span carrying its xid in a.
  auto rs = Exec(
      "retrieve (sp.a) from sp in invfs_spans "
      "where sp.name = \"txn.commit\" and sp.a != 0");
  EXPECT_GE(rs.rows.size(), 4u);  // 4 fixture statements at minimum
}

TEST_F(ExecutorTest, VirtualTablesRejectTimeTravel) {
  Status s = ExecExpectError(
      "retrieve (s.name) from s in invfs_stats[\"12345\"]");
  EXPECT_EQ(s.code(), ErrorCode::kInvalidArgument) << s.ToString();
  s = ExecExpectError("retrieve (s.name) from s in invfs_spans[\"12345\"]");
  EXPECT_EQ(s.code(), ErrorCode::kInvalidArgument) << s.ToString();
  s = ExecExpectError("retrieve (s.op) from s in invfs_slo[\"12345\"]");
  EXPECT_EQ(s.code(), ErrorCode::kInvalidArgument) << s.ToString();
}

TEST_F(ExecutorTest, InvfsSpansShowsQueryExecutionSpans) {
  // Every Exec() runs through Executor::Execute, which opens a "query.exec"
  // span; the running query's own span has not ended when rows materialize,
  // so only completed statements appear. The fixture ran 4.
  auto rs = Exec(
      "retrieve (sp.trace, sp.span, sp.duration) from sp in invfs_spans "
      "where sp.name = \"query.exec\"");
  EXPECT_GE(rs.rows.size(), 4u);
  for (const Row& row : rs.rows) {
    EXPECT_NE(row[0].AsInt8(), 0);  // every span belongs to a trace
    EXPECT_NE(row[1].AsInt8(), 0);  // and has its own id
  }
}

TEST_F(ExecutorTest, InvfsSpansSelfJoinsCommitsToBeginsOnXid) {
  // txn.begin and txn.commit spans both carry the xid in a, so invfs_spans
  // joins with itself on that attribute like any ordinary relation: every
  // commit in the ring pairs with the begin of the same transaction.
  auto commits = Exec(
      "retrieve (c.span) from c in invfs_spans where c.name = \"txn.commit\"");
  ASSERT_GE(commits.rows.size(), 4u);  // at least the fixture's transactions
  auto rs = Exec(
      "retrieve (c.span, b.span) from c in invfs_spans, b in invfs_spans "
      "where c.name = \"txn.commit\" and b.name = \"txn.begin\" "
      "and c.a = b.a");
  std::set<int64_t> joined;
  for (const Row& row : rs.rows) {
    EXPECT_NE(row[0].AsInt8(), row[1].AsInt8());
    joined.insert(row[0].AsInt8());
  }
  for (const Row& row : commits.rows) {
    EXPECT_EQ(joined.count(row[0].AsInt8()), 1u)
        << "txn.commit span " << row[0].AsInt8() << " has no txn.begin";
  }
}

TEST_F(ExecutorTest, InvfsSloReportsEveryDeclaredTarget) {
  // One row per target declared in DatabaseOptions; this fixture never calls
  // the file-system entry points, so counts may be zero — but the targets
  // themselves must surface. Never assert ok here: sanitizer builds are
  // 10-20x slower and may legitimately breach latency targets.
  auto rs = Exec(
      "retrieve (s.op, s.count, s.target_p99, s.ok) from s in invfs_slo");
  ASSERT_EQ(rs.rows.size(), db_->options().slo_targets.size());
  for (const Row& row : rs.rows) {
    EXPECT_FALSE(row[0].AsText().empty());
    EXPECT_GT(row[2].AsInt8(), 0);  // every default target constrains p99
  }
  // An unexercised op class evaluates as ok (vacuously meeting its target).
  rs = Exec(
      "retrieve (s.count, s.ok) from s in invfs_slo where s.op = \"p_read\"");
  ASSERT_EQ(rs.rows.size(), 1u);
  if (rs.rows[0][0].AsInt8() == 0) {
    EXPECT_TRUE(rs.rows[0][1].AsBool());
  }
}

}  // namespace
}  // namespace invfs
