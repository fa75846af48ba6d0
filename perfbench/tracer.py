"""Out-of-tree tracer for the bihomcheck benchmark.

It patches the package from outside, so nothing under src/ knows about it:

* every public module-level function of the traced layers is wrapped, and the
  wrapper is written into every namespace that holds the original (a
  from-imported name such as `check_identity` is bound separately in engine,
  structures, catalog, construct and cli);
* a fixed list of methods is wrapped at class level (METHODS);
* the arithmetic dunders of `Scalar` are wrapped by a counter only, split by
  operand kind, because they run millions of times per pass. `Scalar.is_zero`
  is deliberately left alone.

Spans (name, start, end, parent id, check id) are kept in compact arrays and
written once, at exit, by `write_spans`. A span's self time is its duration
minus the durations of its direct child spans.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import time
from array import array
from collections import Counter

# Import order: each module is patched before the modules that from-import it
# are executed, so names bound at import time (and the .idl parse that
# `structures` runs while importing) are already traced.
LAYERS = (
    "scalars",
    "linear",
    "bundle",
    "dsl",
    "engine",
    "fileio",
    "structures",
    "catalog",
    "construct",
    "cli",
)

METHODS = (
    ("engine", "BoundIdentity", "__init__"),
    ("linear", "LinMap", "apply"),
    ("linear", "LinMap", "power"),
    ("linear", "MultiOp", "apply"),
    ("bundle", "AlgebraBundle", "eval_at"),
    ("catalog", "CatalogEntry", "branch_bundles"),
    ("structures", "Report", "to_dict"),
)

SCALAR_OPS = ("__add__", "__radd__", "__sub__", "__mul__", "__rmul__", "__truediv__")

SETUP_CHECK = -1


class Tracer:
    def __init__(self):
        self.names: list = []
        self._name_ids: dict = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.check = array("i")
        self._stack: list = []
        self.check_id = SETUP_CHECK
        # exact counts, cumulative; callers take differences around a pass
        self.counts: Counter = Counter()
        self.scalar_ops = [0, 0]  # [rational operands, polynomial operands]
        self._hooks = {
            "engine.check_identity": self._on_check_identity,
            "engine.BoundIdentity.__init__": self._on_bind,
            "structures.Report.to_dict": self._on_report,
            "catalog.CatalogEntry.branch_bundles": self._on_cases,
            "catalog.sample_points": self._on_cases,
        }

    # -- installation ------------------------------------------------------

    def install(self, package: str = "bihomcheck") -> None:
        """Import the package layer by layer and patch each layer before the
        next is imported. Call it on a process where `package` is not yet
        imported (see run.purge_package)."""
        originals: dict = {}  # id(original function) -> wrapper
        modules = []
        for layer in LAYERS:
            module = importlib.import_module(f"{package}.{layer}")
            modules.append(module)
            for attr, obj in list(vars(module).items()):
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not attr.startswith("_")
                    and id(obj) not in originals
                ):
                    originals[id(obj)] = self._span(f"{layer}.{obj.__name__}", obj)
            self._rebind(modules, originals)
            if layer == "scalars":
                self._count_scalar_ops(module.Scalar)
            for mod_name, cls_name, meth in METHODS:
                if mod_name == layer:
                    cls = getattr(module, cls_name)
                    wrapped = self._span(f"{layer}.{cls_name}.{meth}", getattr(cls, meth))
                    setattr(cls, meth, wrapped)

    @staticmethod
    def _rebind(modules, originals) -> None:
        for module in modules:
            for attr, obj in list(vars(module).items()):
                wrapper = originals.get(id(obj))
                if wrapper is not None and inspect.isfunction(obj) and obj is not wrapper:
                    setattr(module, attr, wrapper)

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _span(self, name: str, fn):
        nid = self._name_id(name)
        hook = self._hooks.get(name)
        names, starts, ends, parents, checks = (
            self.name, self.start, self.end, self.parent, self.check,
        )
        stack = self._stack
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            checks.append(tracer.check_id)
            ends.append(0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return wrapper

    def _count_scalar_ops(self, scalar_cls) -> None:
        counts = self.scalar_ops

        def counting(fn):
            @functools.wraps(fn)
            def wrapper(self, other):
                if self.is_rational() and (
                    not isinstance(other, scalar_cls) or other.is_rational()
                ):
                    counts[0] += 1
                else:
                    counts[1] += 1
                return fn(self, other)

            return wrapper

        for op in SCALAR_OPS:
            setattr(scalar_cls, op, counting(getattr(scalar_cls, op)))

    # -- hooks: exact counts derived from arguments and results ---------------

    def _on_check_identity(self, args, kwargs, verdict) -> None:
        ident = args[0] if args else kwargs["ident"]
        bundle = args[1] if len(args) > 1 else kwargs["bundle"]
        dim, k = bundle.space.dim, len(ident.vars)
        space = dim**k
        if verdict.status == "pass":
            visited = space
        elif verdict.status == "fail":
            rank = 0
            for i in verdict.counterexample.basis_tuple:
                rank = rank * dim + i
            visited = rank + 1
            self.counts["fail_tuples"] += visited
            self.counts["fail_space"] += space
        else:
            visited = 0
        self.counts["tuples"] += visited

    def _on_bind(self, args, kwargs, result) -> None:
        self.counts["monomials"] += len(args[0].monomials)

    def _on_report(self, args, kwargs, result) -> None:
        for verdict in args[0].verdicts:
            self.counts[f"verdicts_{verdict.status}"] += 1

    def _on_cases(self, args, kwargs, result) -> None:
        self.counts["cases"] += len(result)

    # -- span analysis --------------------------------------------------------

    def span_count(self) -> int:
        return len(self.start)

    def summarize(self, lo: int, hi: int) -> dict:
        """Per-name calls, inclusive time and self time (seconds) over the
        spans with ids in [lo, hi), plus the time of spans whose parent is in
        another layer (a layer's inclusive time, nested calls counted once)."""
        child = [0] * (hi - lo)
        for sid in range(lo, hi):
            p = self.parent[sid]
            if p >= lo:
                child[p - lo] += self.end[sid] - self.start[sid]
        calls: Counter = Counter()
        incl: Counter = Counter()
        self_ns: Counter = Counter()
        layer_incl: Counter = Counter()
        names = self.names
        for sid in range(lo, hi):
            name = names[self.name[sid]]
            dur = self.end[sid] - self.start[sid]
            calls[name] += 1
            incl[name] += dur
            self_ns[name] += dur - child[sid - lo]
            layer = name.split(".", 1)[0]
            p = self.parent[sid]
            if p < 0 or names[self.name[p]].split(".", 1)[0] != layer:
                layer_incl[layer] += dur
        to_s = 1e-9
        return {
            "calls": calls,
            "incl_s": {n: v * to_s for n, v in incl.items()},
            "self_s": {n: v * to_s for n, v in self_ns.items()},
            "layer_incl_s": {n: v * to_s for n, v in layer_incl.items()},
        }

    def outermost_s(self, lo: int, hi: int, names: set) -> float:
        """Total duration (seconds) of the spans in [lo, hi) named in `names`
        whose parent is not named in `names`."""
        ids = {self._name_ids[n] for n in names if n in self._name_ids}
        total = 0
        for sid in range(lo, hi):
            if self.name[sid] in ids:
                p = self.parent[sid]
                if p < 0 or self.name[p] not in ids:
                    total += self.end[sid] - self.start[sid]
        return total * 1e-9

    def write_spans(self, path) -> None:
        """One line per span: id, name, start_ns, end_ns, parent id, check id
        (-1 is set-up)."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write("id\tname\tstart_ns\tend_ns\tparent\tcheck\n")
            names = self.names
            for sid in range(len(self.start)):
                out.write(
                    f"{sid}\t{names[self.name[sid]]}\t{self.start[sid]}\t"
                    f"{self.end[sid]}\t{self.parent[sid]}\t{self.check[sid]}\n"
                )
