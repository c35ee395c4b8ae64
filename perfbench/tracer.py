"""Out-of-program tracing: wraps the library's public functions in place.

Layer functions become spans (name, start, end, parent); tensor ops, which
run a few hundred times per example, only bump a per-op counter and a summed
time. Everything stays in memory until ``write``. ``install`` and
``uninstall`` patch and restore the library, so traced and untraced rounds
can alternate inside one process.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

# Span targets: (module, attribute path). A function imported by name into
# another module is patched there too, so every caller goes through it.
SPANS = (
    ("tokenizer", "encode"),
    ("encoder", "encode_intermediate"),
    ("encoder", "embed"),
    ("encoder", "self_attention"),
    ("encoder", "transformer_block"),
    ("denoise", "DenoiseStack.compress"),
    ("denoise", "DenoiseStack.reconstruct"),
    ("denoise", "refine"),
    ("model", "TextClassifier.logits"),
    ("train", "cache_embeddings"),
    ("train", "train_phase1"),
    ("train", "train_phase2"),
    ("train", "evaluate"),
    ("tensor", "Tensor.backward"),
    ("tensor", "Adam.step"),
    ("noise", "corrupt"),
    ("noise", "corrupt_corpus"),
    ("noise", "calibrate"),
    ("metrics", "corpus_wer"),
    ("metrics", "bleu"),
    ("data", "load_corpus"),
    ("data", "make_dataset"),
    ("data", "atomic_write_text"),
    ("data", "atomic_write_bytes"),
    ("checkpoint", "save_checkpoint"),
    ("checkpoint", "load_checkpoint"),
)
# public functions of the tensor module that are not differentiable ops
NOT_OPS = {"finite_difference_check"}

PACKAGE = "denoiseclf"
# modules whose by-name imports of library functions are rebound: the
# library itself and the benchmark's workloads, which call into it
PATCHED_MODULES = (PACKAGE, "workloads")


class Tracer:
    def __init__(self, workload: str):
        self.workload = workload
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[list] = []          # [name id, start, end, parent]
        self.encodes: list[tuple] = []       # (sentence, real tokens, L)
        self.saved_bytes: list[int] = []     # size of each checkpoint written
        self.op_calls: dict[str, int] = defaultdict(int)
        self.op_time: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._op_depth = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------
    def _span(self, name: str, fn):
        name_id = self._name_ids.setdefault(name, len(self._name_ids))
        if name_id == len(self.names):
            self.names.append(name)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(spans)
            record = [name_id, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(record)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if name == "tokenizer.encode":
                mask = result.attention_mask
                self.encodes.append((args[0], sum(mask), len(mask)))
            elif name == "checkpoint.save_checkpoint":
                self.saved_bytes.append(Path(args[1]).stat().st_size)
            return result
        return wrapper

    def _op(self, name: str, fn):
        calls, spent = self.op_calls, self.op_time
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            # an op called from inside another op is the outer op's work
            if self._op_depth:
                return fn(*args, **kwargs)
            self._op_depth = 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spent[name] += clock() - start
                calls[name] += 1
                self._op_depth = 0
        return wrapper

    # -- patching -----------------------------------------------------------
    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _patch_everywhere(self, original, replacement) -> None:
        """Rebind every module-level name of the package bound to ``original``."""
        for modname, module in list(sys.modules.items()):
            if modname.partition(".")[0] not in PATCHED_MODULES:
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, replacement)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for modname, path in SPANS:
            module = importlib.import_module(f"{PACKAGE}.{modname}")
            owner_name, _, attr = path.rpartition(".")
            name = f"{modname}.{attr}"
            if owner_name:
                owner = getattr(module, owner_name)
                self._patch(owner, attr, self._span(name, owner.__dict__[attr]))
            else:
                original = getattr(module, attr)
                self._patch_everywhere(original, self._span(name, original))
        tensor = importlib.import_module(f"{PACKAGE}.tensor")
        for attr, value in list(vars(tensor).items()):
            if (callable(value) and not isinstance(value, type)
                    and not attr.startswith("_") and attr not in NOT_OPS
                    and getattr(value, "__module__", None) == tensor.__name__):
                self._patch_everywhere(value, self._op(attr, value))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- output -------------------------------------------------------------
    def mark(self) -> tuple:
        """Where a phase starts: span, encode and checkpoint counts plus
        the op totals so far."""
        return (len(self.spans), len(self.encodes), len(self.saved_bytes),
                dict(self.op_calls), dict(self.op_time))

    def phase_metrics(self, start: tuple, examples: int) -> dict[str, float]:
        """Per-layer metrics of everything recorded since ``start``.

        Times are inclusive except ``encoder.block_s`` (minus attention),
        ``model.logits_s`` and ``train.loop_self_s``, which are self time:
        the span minus its child spans. Tensor-op time is never subtracted,
        because every layer above the engine is made of tensor ops.
        """
        s0, e0, b0, calls0, time0 = start
        spans = self.spans[s0:]
        names = [self.names[rec[0]] for rec in spans]
        duration = [rec[2] - rec[1] for rec in spans]
        child = [0.0] * len(spans)
        parent = [rec[3] - s0 if rec[3] >= s0 else -1 for rec in spans]
        # owner: the nearest enclosing encoder pass or post-block refine
        owner: list[str | None] = []
        for i, name in enumerate(names):
            if parent[i] >= 0:
                child[parent[i]] += duration[i]
            if name in ("encoder.encode_intermediate", "denoise.refine"):
                owner.append(name)
            else:
                owner.append(owner[parent[i]] if parent[i] >= 0 else None)

        incl: dict[str, float] = defaultdict(float)
        self_time: dict[str, float] = defaultdict(float)
        count: dict[str, int] = defaultdict(int)
        encoder_attention = encoder_block = 0.0
        train_steps = calibrate_passes = 0
        for i, name in enumerate(names):
            incl[name] += duration[i]
            self_time[name] += duration[i] - child[i]
            count[name] += 1
            up = names[parent[i]] if parent[i] >= 0 else None
            if owner[i] == "encoder.encode_intermediate":
                if name == "encoder.self_attention":
                    encoder_attention += duration[i]
                elif name == "encoder.transformer_block":
                    encoder_block += duration[i] - child[i]
            if name == "tensor.backward" and up in ("train.train_phase1",
                                                     "train.train_phase2"):
                train_steps += 1
            if name == "noise.corrupt_corpus" and up == "noise.calibrate":
                calibrate_passes += 1

        op_calls = {k: v - calls0.get(k, 0) for k, v in self.op_calls.items()}
        op_time = {k: v - time0.get(k, 0.0) for k, v in self.op_time.items()}
        encodes = self.encodes[e0:]
        n_encodes = len(encodes)
        per_example = 1.0 / examples if examples else 0.0
        return {
            "tensor.ops_per_example": sum(op_calls.values()) * per_example,
            "tensor.matmul_s": op_time.get("matmul", 0.0),
            "tensor.gelu_s": op_time.get("gelu", 0.0),
            "tensor.softmax_s": op_time.get("softmax", 0.0),
            "tensor.layernorm_s": op_time.get("layernorm", 0.0),
            "tensor.backward_s": incl["tensor.backward"],
            "tensor.adam_s": incl["tensor.step"],
            "tensor.adam_steps": count["tensor.step"],
            "tokenizer.encode_s": incl["tokenizer.encode"],
            "tokenizer.encode_calls": n_encodes,
            "tokenizer.distinct_share": (
                len({e[0] for e in encodes}) / n_encodes if n_encodes else 0.0),
            "tokenizer.real_token_share": (
                sum(e[1] for e in encodes) / sum(e[2] for e in encodes)
                if n_encodes else 0.0),
            "encoder.embed_s": incl["encoder.embed"],
            "encoder.attention_s": encoder_attention,
            "encoder.block_s": encoder_block,
            "encoder.calls_per_example": (
                count["encoder.encode_intermediate"] * per_example),
            "denoise.compress_s": incl["denoise.compress"],
            "denoise.reconstruct_s": incl["denoise.reconstruct"],
            "denoise.refine_s": incl["denoise.refine"],
            "model.logits_s": self_time["model.logits"],
            "train.cache_embeddings_s": incl["train.cache_embeddings"],
            "train.loop_self_s": (self_time["train.train_phase1"] +
                                  self_time["train.train_phase2"]),
            "train.steps": train_steps,
            "noise.corrupt_s": incl["noise.corrupt"],
            "noise.calibrate_s": incl["noise.calibrate"],
            "noise.calibrate_passes": calibrate_passes,
            "metrics.corpus_wer_s": incl["metrics.corpus_wer"],
            "metrics.bleu_s": incl["metrics.bleu"],
            "data.load_corpus_s": incl["data.load_corpus"],
            "data.write_s": (incl["data.atomic_write_text"] +
                             incl["data.atomic_write_bytes"]),
            "checkpoint.save_s": incl["checkpoint.save_checkpoint"],
            "checkpoint.load_s": incl["checkpoint.load_checkpoint"],
            "checkpoint.bytes": sum(self.saved_bytes[b0:]),
        }

    def write(self, path: Path, extra: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {"workload": self.workload, "names": self.names,
                   "span_fields": ["name", "start", "end", "parent"],
                   "spans": self.spans, "op_calls": self.op_calls,
                   "op_time_s": self.op_time, **extra}
        path.write_text(json.dumps(payload), encoding="utf-8")
