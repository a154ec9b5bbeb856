// FunctionRegistry: native (C++) functions callable from POSTQUEL.
//
// The paper's POSTGRES dynamically loads user C functions into the data
// manager and runs them in its address space — the mechanism behind both the
// file-type functions (snow(file), keywords(file)) and the 7x-faster
// single-process benchmark configuration. We reproduce the call path with a
// registry of C++ callables: registration plays the role of dynamic loading;
// dispatch from the query engine and in-address-space execution are
// identical. pg_proc rows carry the catalog-side metadata.

#pragma once

#include <functional>
#include <map>
#include <span>
#include <string>

#include "src/storage/value.h"
#include "src/txn/snapshot.h"
#include "src/util/status.h"

namespace invfs {

class Database;
struct TableInfo;
class FunctionRegistry;

// Everything an expression needs at evaluation time.
struct EvalContext {
  Database* db = nullptr;
  TxnId txn = kInvalidTxn;
  Snapshot snap;
  const FunctionRegistry* registry = nullptr;
  // $1..$n bindings while evaluating a POSTQUEL-language function body.
  const std::vector<Value>* params = nullptr;

  struct Binding {
    const TableInfo* table = nullptr;
    const Row* row = nullptr;
    // The snapshot `row` was read under (a range's `[t]`); null: `snap`.
    const Snapshot* snap = nullptr;
  };
  // Range-variable bindings for the current joined tuple.
  std::map<std::string, Binding, std::less<>> bindings;
};

using NativeFn = std::function<Result<Value>(std::span<const Value>, EvalContext&)>;

class FunctionRegistry {
 public:
  // Register (or replace) a native function. This is our stand-in for
  // POSTGRES' dynamic loading of user C code into the data manager.
  void RegisterNative(const std::string& name, NativeFn fn) {
    fns_[name] = std::move(fn);
  }

  Result<const NativeFn*> Get(const std::string& name) const {
    auto it = fns_.find(name);
    if (it == fns_.end()) {
      return Status::NotFound("no native function '" + name + "' loaded");
    }
    return &it->second;
  }

  bool Has(const std::string& name) const { return fns_.contains(name); }

 private:
  std::map<std::string, NativeFn> fns_;
};

}  // namespace invfs
