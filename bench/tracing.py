"""In-process span tracer for the benchmark's traced run.

The tracer wraps, from outside the package, the public names that
radda_solve and adda_solve_dense look up at call time, so no module of the
package changes.  Each call through a wrapped name records a span (name,
start, end, parent span, solve id) and, for base operator applies, the
number of columns applied.  The wrappers are in place only inside
installed(), and the originals are put back when it ends, so every other
call the worker makes goes to the package's own functions.  Spans stay in
memory until write() dumps them at the end of the run.
"""

from __future__ import annotations

import importlib
import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


def _block_cols(args) -> int:
    """Columns of the block Z in a BaseDoublingOperator.apply(self, Z) call."""
    shape = getattr(args[1], "shape", ())
    return shape[1] if len(shape) == 2 else 1


#: (owner, attribute, span name, column counter).  Owners are "module" or
#: "module:Class"; the solvers resolve these names at call time.
TARGETS = (
    ("radda.lowrank", "choose_alpha", "cayley.choose_alpha", None),
    ("radda.lowrank", "build_shifted", "cayley.build_shifted", None),
    ("radda.lowrank", "init_lowrank", "cayley.init_lowrank", None),
    ("radda.cayley:BaseDoublingOperator", "apply", "cayley.base_apply",
     _block_cols),
    ("radda.cayley:BaseDoublingOperator", "apply_t", "cayley.base_apply",
     _block_cols),
    ("radda.lowrank", "radda_step", "lowrank.radda_step", None),
    ("radda.lowrank", "apply_ahat", "lowrank.apply_ahat", None),
    ("radda.lowrank", "truncate_factors", "lowrank.truncate_factors", None),
    ("radda.lowrank", "residual_lowrank", "lowrank.residual_lowrank", None),
    ("radda.dense", "init_dense", "dense.init_dense", None),
    ("radda.dense", "adda_step_dense", "dense.adda_step_dense", None),
    ("radda.dense", "residual_dense", "dense.residual_dense", None),
    ("radda.serialize", "load_problem", "serialize.load_problem", None),
    ("radda.problems", "make_example2", "problems.make_example2", None),
)


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Span recorder.  installed() wraps TARGETS for the length of a block;
    names that no longer exist are listed in .missing instead of failing
    the run."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent index, solve id, cols]
        self.missing = []
        self.solve_id = None
        self._stack = []
        self._targets = []   # (owner, attribute, original, span name, cols)
        for owner_path, attr, name, cols in TARGETS:
            try:
                owner = _resolve(owner_path)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{name} ({owner_path}.{attr})")
                continue
            self._targets.append((owner, attr, original, name, cols))

    def _enter(self, name: str, cols: int) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), None, parent,
                           self.solve_id, cols])
        self._stack.append(idx)
        return idx

    def _exit(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._enter(name, 0)
        try:
            yield
        finally:
            self._exit(idx)

    @contextmanager
    def installed(self, solve_id: str):
        """Record the spans of the block under solve_id, then restore every
        wrapped name to the package's original."""
        self.solve_id = solve_id
        for owner, attr, original, name, cols in self._targets:
            setattr(owner, attr, self._wrapped(original, name, cols))
        try:
            yield
        finally:
            for owner, attr, original, _, _ in self._targets:
                setattr(owner, attr, original)
            self.solve_id = None

    def _wrapped(self, original, name, cols):
        def traced(*args, **kwargs):
            idx = self._enter(name, cols(args) if cols else 0)
            try:
                return original(*args, **kwargs)
            finally:
                self._exit(idx)
        return traced

    def layers(self, solve_id) -> dict:
        """Per span name, for one solve: total and self seconds, calls and
        columns.  Self time is a span's duration minus its children's."""
        child = defaultdict(float)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: {"s": 0.0, "self_s": 0.0, "calls": 0,
                                   "cols": 0})
        for idx, (name, start, end, _, sid, cols) in enumerate(self.spans):
            if sid != solve_id:
                continue
            row = out[name]
            row["s"] += end - start
            row["self_s"] += end - start - child[idx]
            row["calls"] += 1
            row["cols"] += cols
        return dict(out)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, sid, cols in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "solve": sid,
                                     "cols": cols}) + "\n")
