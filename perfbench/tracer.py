"""In-memory span tracer installed from outside the library.

The tracer replaces module attributes of ``lexseg`` with thin wrappers:

* layer functions become spans (name, start, end, parent span), kept in a
  list in memory and written out only when the round ends;
* kernel functions in ``lexseg.kernels`` are too hot for one span per call
  (millions per batch), so they only bump per-kernel call and nanosecond
  counters.

Nothing inside ``src/`` is edited: every wrapper is set with ``setattr`` on
the module object and removed again by :meth:`Tracer.uninstall`.
"""

from __future__ import annotations

import json
import time

# layer name -> the (module, attribute) bindings that are wrapped for it.
# Each binding is wrapped separately, so a call is counted once, by the
# binding the caller looked up.  Bindings missing from the program are
# skipped, and their layer then reports zero.
LAYERS = {
    "closed_form.ass": [("sweep", "associated_primes_lexsegment")],
    "decompose.oracle": [
        ("sweep", "associated_primes_oracle"),
        ("filtration", "associated_primes_oracle"),
        ("decompose", "associated_primes_oracle"),
    ],
    "decompose.decomposition": [("decompose", "irreducible_decomposition")],
    "decompose.box": [("filtration", "witness_box")],
    "filtration.search": [("sweep", "staged_filtration")],
    "filtration.verify": [
        ("sweep", "verify_prime_filtration"),
        ("sweep", "verify_pretty_clean"),
        ("sweep", "supp_equals_ass"),
    ],
    "filtration.stanley": [
        ("sweep", "stanley_decomposition"),
        ("sweep", "sdepth_lower_bound"),
        ("sweep", "max_witness_degree"),
    ],
    "filtration.cover": [("sweep", "disjoint_cover_check")],
    "depth.exact": [("sweep", "depth_exact"), ("depth", "depth_exact")],
    "depth.class": [("sweep", "depth_class"), ("depth", "depth_class")],
    "depth.lattice": [("depth", "lcm_lattice")],
    "depth.koszul": [("depth", "upper_koszul_complex")],
    "depth.homology": [("depth", "homology_ranks")],
}

KERNELS = ("colon_gens", "member", "minimalize", "gf_rank")

# cache name -> (module, attribute) of an lru_cache-decorated function
CACHES = {
    "decompose.split": ("decompose", "_split"),
    "decompose.decomposition": ("decompose", "irreducible_decomposition"),
    "decompose.oracle": ("decompose", "associated_primes_oracle"),
    "depth.koszul": ("depth", "upper_koszul_complex"),
    "depth.lattice": ("depth", "lcm_lattice"),
    "depth.betti": ("depth", "betti_numbers"),
}

ITEM = "item"
SEARCH = "filtration.search"
ORACLE = "decompose.oracle"


class Tracer:
    """Spans and kernel counters for one batch in one process."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.names = [ITEM] + list(LAYERS)
        self.index = {name: i for i, name in enumerate(self.names)}
        # (span id, parent id, name index, start ns, end ns, outermost of its name)
        self.spans: list[tuple] = []
        self.stack = [0]
        self.active = [0] * len(self.names)
        self.next_id = 1
        self.kernel_calls = [0] * len(KERNELS)
        self.kernel_ns = [0] * len(KERNELS)
        self.search_colon_calls = 0
        self.search_steps = 0
        self.search_oracle_calls = 0
        self.caches = {}
        for cache, (mod, attr) in CACHES.items():
            fn = getattr(modules[mod], attr, None)
            if fn is not None and hasattr(fn, "cache_info"):
                self.caches[cache] = fn
        self.saved: list[tuple] = []
        for layer, bindings in LAYERS.items():
            for mod, attr in bindings:
                self._replace(mod, attr, lambda fn, layer=layer: self._span_wrapper(fn, layer))
        for k, attr in enumerate(KERNELS):
            self._replace("kernels", attr, lambda fn, k=k: self._kernel_wrapper(fn, k))

    def _replace(self, mod, attr, make):
        module = self.modules[mod]
        fn = getattr(module, attr, None)
        if fn is None:
            return
        self.saved.append((module, attr, fn))
        setattr(module, attr, make(fn))

    def uninstall(self):
        for module, attr, fn in reversed(self.saved):
            setattr(module, attr, fn)
        self.saved.clear()

    def _span_wrapper(self, fn, layer):
        idx = self.index[layer]
        stack, active, spans = self.stack, self.active, self.spans
        kcalls = self.kernel_calls
        colon = KERNELS.index("colon_gens")
        clock = time.perf_counter_ns
        is_search = layer == SEARCH
        is_oracle = layer == ORACLE
        search_idx = self.index[SEARCH]

        def wrapper(*args, **kwargs):
            sid = self.next_id
            self.next_id = sid + 1
            parent = stack[-1]
            stack.append(sid)
            outer = active[idx] == 0
            active[idx] += 1
            if is_oracle and active[search_idx]:
                self.search_oracle_calls += 1
            colon0 = kcalls[colon]
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                active[idx] -= 1
                stack.pop()
                spans.append((sid, parent, idx, start, end, outer))
            if is_search and outer:
                self.search_colon_calls += kcalls[colon] - colon0
                self.search_steps += len(getattr(out, "steps", ()))
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _kernel_wrapper(self, fn, k):
        calls, ns = self.kernel_calls, self.kernel_ns
        clock = time.perf_counter_ns

        def wrapper(*args):
            start = clock()
            out = fn(*args)
            ns[k] += clock() - start
            calls[k] += 1
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def item(self, call, *args):
        """Run call(*args) as one item span; returns its result."""
        return self._span_wrapper(call, ITEM)(*args)

    def cache_snapshot(self) -> dict:
        out = {}
        for cache, fn in self.caches.items():
            info = fn.cache_info()
            out[cache] = {"entries": info.currsize, "hits": info.hits, "misses": info.misses}
        return out

    def totals(self) -> dict:
        """Raw sums for the batch; the parent turns them into metrics."""
        dur = {name: 0 for name in self.names}
        calls = {name: 0 for name in self.names}
        child_ns: dict[int, int] = {}
        for sid, parent, idx, start, end, outer in self.spans:
            child_ns[parent] = child_ns.get(parent, 0) + (end - start)
        self_ns = {name: 0 for name in self.names}
        unattributed = 0
        for sid, parent, idx, start, end, outer in self.spans:
            name = self.names[idx]
            calls[name] += 1
            if outer:
                dur[name] += end - start
            own = (end - start) - child_ns.get(sid, 0)
            self_ns[name] += own
            if name == ITEM:
                unattributed += own
        return {
            "layer_ns": dur,
            "layer_self_ns": self_ns,
            "layer_calls": calls,
            "unattributed_ns": unattributed,
            "kernel_calls": dict(zip(KERNELS, self.kernel_calls)),
            "kernel_ns": dict(zip(KERNELS, self.kernel_ns)),
            "search_colon_calls": self.search_colon_calls,
            "search_steps": self.search_steps,
            "search_oracle_calls": self.search_oracle_calls,
        }

    def dump_spans(self, path):
        """Write the in-memory spans, one JSON object per line."""
        with open(path, "w") as fh:
            for sid, parent, idx, start, end, _ in self.spans:
                fh.write(
                    json.dumps(
                        {"id": sid, "parent": parent, "name": self.names[idx], "start_ns": start, "end_ns": end}
                    )
                )
                fh.write("\n")
