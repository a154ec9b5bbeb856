#include "src/query/ast_print.h"

namespace invfs {
namespace {

std::string ValueLiteral(const Value& v) {
  if (v.is_null()) {
    return "null";
  }
  if (v.HasType(TypeId::kText)) {
    return "\"" + v.AsText() + "\"";  // rule predicates never embed quotes
  }
  if (v.HasType(TypeId::kBool)) {
    return v.AsBool() ? "true" : "false";
  }
  if (v.HasType(TypeId::kOid)) {
    return std::to_string(v.AsOid());
  }
  if (v.HasType(TypeId::kTimestamp)) {
    return std::to_string(v.AsTimestamp());
  }
  return v.ToString();
}

}  // namespace

std::string ExprToString(const Expr& expr) {
  switch (expr.kind) {
    case ExprKind::kConst:
      return ValueLiteral(expr.constant);
    case ExprKind::kParam: {
      std::string out = "$";
      out += std::to_string(expr.param_index);
      return out;
    }
    case ExprKind::kColumnRef:
      return expr.range_var.empty() ? expr.column : expr.range_var + "." + expr.column;
    case ExprKind::kFuncCall: {
      std::string out = expr.name + "(";
      for (size_t i = 0; i < expr.args.size(); ++i) {
        if (i > 0) {
          out += ", ";
        }
        out += ExprToString(*expr.args[i]);
      }
      return out + ")";
    }
    case ExprKind::kUnaryOp:
      return "(" + expr.name + " " + ExprToString(*expr.args[0]) + ")";
    case ExprKind::kBinaryOp: {
      std::string out = "(";
      out += ExprToString(*expr.args[0]);
      out += ' ';
      out += expr.name;
      out += ' ';
      out += ExprToString(*expr.args[1]);
      out += ')';
      return out;
    }
  }
  return "?";
}

}  // namespace invfs
