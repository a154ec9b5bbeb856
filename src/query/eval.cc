#include "src/query/eval.h"

#include <optional>
#include <utility>

#include "src/catalog/database.h"
#include "src/query/parser.h"

namespace invfs {
namespace {

// The binding a column reference reads, and the column's index in it.
Result<std::pair<const EvalContext::Binding*, size_t>> ResolveColumn(
    const Expr& expr, const EvalContext& ctx) {
  if (!expr.range_var.empty()) {
    auto it = ctx.bindings.find(expr.range_var);
    if (it == ctx.bindings.end()) {
      return Status::NotFound("unknown range variable '" + expr.range_var + "'");
    }
    INV_ASSIGN_OR_RETURN(size_t idx, it->second.table->schema.ColumnIndex(expr.column));
    return std::make_pair(&it->second, idx);
  }
  // Unqualified: the column must be unique across current bindings.
  std::optional<std::pair<const EvalContext::Binding*, size_t>> found;
  for (const auto& [var, binding] : ctx.bindings) {
    auto idx = binding.table->schema.ColumnIndex(expr.column);
    if (idx.ok()) {
      if (found.has_value()) {
        return Status::InvalidArgument("ambiguous column '" + expr.column + "'");
      }
      found.emplace(&binding, *idx);
    }
  }
  if (!found.has_value()) {
    return Status::NotFound("no column '" + expr.column + "' in scope");
  }
  return *found;
}

Result<Value> EvalColumnRef(const Expr& expr, EvalContext& ctx) {
  INV_ASSIGN_OR_RETURN(auto column, ResolveColumn(expr, ctx));
  return (*column.first->row)[column.second];
}

// The snapshot a native function runs under: that of the first range variable
// its arguments read (so `linecount(n.file)` over `naming[t]` reads the file
// as of t), else the statement's.
const Snapshot& CallSnapshot(const Expr& expr, const EvalContext& ctx) {
  for (const ExprPtr& a : expr.args) {
    if (a->kind == ExprKind::kColumnRef) {
      auto column = ResolveColumn(*a, ctx);
      if (column.ok() && column->first->snap != nullptr) {
        return *column->first->snap;
      }
    }
  }
  return ctx.snap;
}

Result<Value> EvalCall(const Expr& expr, EvalContext& ctx) {
  std::vector<Value> args;
  args.reserve(expr.args.size());
  for (const ExprPtr& a : expr.args) {
    INV_ASSIGN_OR_RETURN(Value v, Eval(*a, ctx));
    args.push_back(std::move(v));
  }
  // Resolution order: pg_proc (catalog-registered, possibly POSTQUEL-language)
  // first, then raw registry builtins.
  const NativeFn* fn = nullptr;
  if (ctx.db != nullptr) {
    auto proc = ctx.db->catalog().GetFunction(expr.name);
    if (proc.ok()) {
      if ((*proc)->nargs >= 0 &&
          args.size() != static_cast<size_t>((*proc)->nargs)) {
        return Status::InvalidArgument("function " + expr.name + " expects " +
                                       std::to_string((*proc)->nargs) + " args");
      }
      if ((*proc)->lang == ProcLang::kPostquel) {
        // Body is a single POSTQUEL expression over $1..$n.
        INV_ASSIGN_OR_RETURN(ExprPtr body, ParseExpression((*proc)->src));
        EvalContext inner = ctx;
        inner.params = &args;
        inner.bindings.clear();
        return Eval(*body, inner);
      }
      // Native: dispatch through the registry under the pg_proc src symbol
      // (usually the same as the function name).
      const std::string& symbol = (*proc)->src.empty() ? (*proc)->name : (*proc)->src;
      INV_ASSIGN_OR_RETURN(fn, ctx.registry->Get(symbol));
    }
  }
  if (fn == nullptr) {
    if (ctx.registry == nullptr || !ctx.registry->Has(expr.name)) {
      return Status::NotFound("unknown function '" + expr.name + "'");
    }
    INV_ASSIGN_OR_RETURN(fn, ctx.registry->Get(expr.name));
  }
  Snapshot snap = CallSnapshot(expr, ctx);
  std::swap(ctx.snap, snap);
  Result<Value> out = (*fn)(args, ctx);
  std::swap(ctx.snap, snap);
  return out;
}

Result<Value> Arith(const std::string& op, const Value& l, const Value& r) {
  if (l.is_null() || r.is_null()) {
    return Value::Null();
  }
  const bool any_float = l.HasType(TypeId::kFloat8) || r.HasType(TypeId::kFloat8);
  if (any_float) {
    INV_ASSIGN_OR_RETURN(double a, l.ToDouble());
    INV_ASSIGN_OR_RETURN(double b, r.ToDouble());
    if (op == "+") return Value::Float8(a + b);
    if (op == "-") return Value::Float8(a - b);
    if (op == "*") return Value::Float8(a * b);
    if (op == "/") {
      if (b == 0) {
        return Status::InvalidArgument("division by zero");
      }
      return Value::Float8(a / b);
    }
  } else {
    INV_ASSIGN_OR_RETURN(int64_t a, l.ToInt64());
    INV_ASSIGN_OR_RETURN(int64_t b, r.ToInt64());
    if (op == "+") return Value::Int8(a + b);
    if (op == "-") return Value::Int8(a - b);
    if (op == "*") return Value::Int8(a * b);
    if (op == "/") {
      if (b == 0) {
        return Status::InvalidArgument("division by zero");
      }
      // Integer division promotes to float when inexact, which makes the
      // paper's "snow(file)/size(file) > 0.5" idiom behave as intended.
      if (a % b == 0) {
        return Value::Int8(a / b);
      }
      return Value::Float8(static_cast<double>(a) / static_cast<double>(b));
    }
  }
  return Status::InvalidArgument("unknown arithmetic operator " + op);
}

Result<Value> Compare(const std::string& op, const Value& l, const Value& r) {
  if (l.is_null() || r.is_null()) {
    return Value::Null();
  }
  // Guard: comparing text against numeric is a type error, not "false".
  const bool l_text = l.HasType(TypeId::kText);
  const bool r_text = r.HasType(TypeId::kText);
  if (l_text != r_text) {
    return Status::InvalidArgument("type mismatch in comparison: " + l.ToString() +
                                   " " + op + " " + r.ToString());
  }
  const int c = l.Compare(r);
  if (op == "=") return Value::Bool(c == 0);
  if (op == "!=") return Value::Bool(c != 0);
  if (op == "<") return Value::Bool(c < 0);
  if (op == "<=") return Value::Bool(c <= 0);
  if (op == ">") return Value::Bool(c > 0);
  if (op == ">=") return Value::Bool(c >= 0);
  return Status::InvalidArgument("unknown comparison operator " + op);
}

bool Truthy(const Value& v) { return !v.is_null() && v.HasType(TypeId::kBool) && v.AsBool(); }

}  // namespace

Result<Value> Eval(const Expr& expr, EvalContext& ctx) {
  switch (expr.kind) {
    case ExprKind::kConst:
      return expr.constant;
    case ExprKind::kParam: {
      if (ctx.params == nullptr || expr.param_index < 1 ||
          static_cast<size_t>(expr.param_index) > ctx.params->size()) {
        return Status::InvalidArgument("parameter $" +
                                       std::to_string(expr.param_index) +
                                       " out of range");
      }
      return (*ctx.params)[static_cast<size_t>(expr.param_index - 1)];
    }
    case ExprKind::kColumnRef:
      return EvalColumnRef(expr, ctx);
    case ExprKind::kFuncCall:
      return EvalCall(expr, ctx);
    case ExprKind::kUnaryOp: {
      INV_ASSIGN_OR_RETURN(Value x, Eval(*expr.args[0], ctx));
      if (expr.name == "not") {
        if (x.is_null()) {
          return Value::Null();
        }
        return Value::Bool(!Truthy(x));
      }
      if (expr.name == "-") {
        if (x.is_null()) {
          return Value::Null();
        }
        if (x.HasType(TypeId::kFloat8)) {
          return Value::Float8(-x.AsFloat8());
        }
        INV_ASSIGN_OR_RETURN(int64_t v, x.ToInt64());
        return Value::Int8(-v);
      }
      return Status::InvalidArgument("unknown unary operator " + expr.name);
    }
    case ExprKind::kBinaryOp: {
      if (expr.name == "and") {
        INV_ASSIGN_OR_RETURN(Value l, Eval(*expr.args[0], ctx));
        if (!Truthy(l)) {
          return Value::Bool(false);
        }
        INV_ASSIGN_OR_RETURN(Value r, Eval(*expr.args[1], ctx));
        return Value::Bool(Truthy(r));
      }
      if (expr.name == "or") {
        INV_ASSIGN_OR_RETURN(Value l, Eval(*expr.args[0], ctx));
        if (Truthy(l)) {
          return Value::Bool(true);
        }
        INV_ASSIGN_OR_RETURN(Value r, Eval(*expr.args[1], ctx));
        return Value::Bool(Truthy(r));
      }
      INV_ASSIGN_OR_RETURN(Value l, Eval(*expr.args[0], ctx));
      INV_ASSIGN_OR_RETURN(Value r, Eval(*expr.args[1], ctx));
      if (expr.name == "in") {
        // Substring membership over text, the paper's keyword idiom.
        if (l.is_null() || r.is_null()) {
          return Value::Null();
        }
        if (!l.HasType(TypeId::kText) || !r.HasType(TypeId::kText)) {
          return Status::InvalidArgument("'in' requires text operands");
        }
        return Value::Bool(r.AsText().find(l.AsText()) != std::string::npos);
      }
      if (expr.name == "+" || expr.name == "-" || expr.name == "*" ||
          expr.name == "/") {
        return Arith(expr.name, l, r);
      }
      return Compare(expr.name, l, r);
    }
  }
  return Status::Internal("unreachable expression kind");
}

Result<bool> EvalPredicate(const Expr& expr, EvalContext& ctx) {
  INV_ASSIGN_OR_RETURN(Value v, Eval(expr, ctx));
  return Truthy(v);
}

}  // namespace invfs
