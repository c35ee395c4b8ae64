"""The batch axis: batched forwards and training losses against a
per-example reference built here from the one-sequence API, plus the
graph-free ``no_grad`` mode and the constants no graph holds."""

import numpy as np
import pytest

from denoiseclf import tensor as T
from denoiseclf import train
from denoiseclf.data import PairedExample, sentences_of
from denoiseclf.denoise import DenoiseConfig, DenoiseStack
from denoiseclf.encoder import (EncoderConfig, EncoderParams, ParamTable,
                               self_attention)
from denoiseclf.gradcheck import run_block_checks
from denoiseclf.model import ModelConfig, TextClassifier
from denoiseclf.tensor import Tensor
from denoiseclf.tokenizer import build_vocab
from denoiseclf.train import (TrainConfig, cache_embeddings, evaluate,
                              phase1_loss, phase2_loss, train_phase2)

PAIRS = [
    PairedExample(0, "good nite", "good night"),
    PairedExample(0, "sweet dreamz tonight", "sweet dreams tonight"),
    PairedExample(0, "happy fun day", "happy fun day"),
    PairedExample(1, "bad day", "bad day"),
    PairedExample(1, "awful trouble", "awful trouble again"),
    PairedExample(1, "hard work pain", "hard work pain"),
]
TOL = 1e-10


def make_model(mode="stacked", seed=0):
    vocab = build_vocab(sentences_of(PAIRS))
    cfg = ModelConfig(
        encoder=EncoderConfig(hidden_size=8, seq_len=6, num_layers=1,
                              num_heads=2, ff_size=12,
                              vocab_size=len(vocab) + 4, num_classes=2),
        denoise=DenoiseConfig(dims=(8, 6, 4, 2), activation="tanh"),
        n_post=1, mode=mode)
    model = TextClassifier(cfg, vocab, seed=seed)
    for p in model.parameters():
        p.requires_grad = True
    return model


def count_calls(monkeypatch, model, method):
    """A list that gets the batch size of every call to ``model.method``."""
    calls = []
    wrapped = getattr(model, method)

    def spy(seqs):
        calls.append(len(seqs))
        return wrapped(seqs)

    monkeypatch.setattr(model, method, spy)
    return calls


def one_by_one(model, test):
    """Confusion counts of ``predict_sentence`` run on each example."""
    counts = np.zeros((2, 2), dtype=np.int64)
    for ex in test:
        counts[ex.label, model.predict_sentence(ex.incomplete)[1]] += 1
    return counts


def gradients(model, loss_fn):
    """(loss value, {name: gradient}) of one backward pass."""
    for p in model.parameters():
        p.grad = None
    loss = loss_fn()
    loss.backward()
    return float(loss.values), {
        name: (np.zeros_like(p.values) if p.grad is None else p.grad.copy())
        for name, p in model.named_parameters()}


def assert_same_step(model, reference_fn, batched_fn):
    ref_loss, ref_grads = gradients(model, reference_fn)
    loss, grads = gradients(model, batched_fn)
    assert abs(loss - ref_loss) <= TOL
    for name, g in grads.items():
        np.testing.assert_allclose(g, ref_grads[name], rtol=0, atol=TOL,
                                   err_msg=name)
    # the reference must exercise the gradients it is compared against
    assert any(np.abs(g).max() > 0 for g in ref_grads.values())


def reference_phase2(model, exs, aux_mse_weight):
    """The per-example loop: one graph per sentence, aux MSE from a second
    encoder pass, the sum divided by the batch size."""
    total = None
    for ex in exs:
        seq = model.encode_sentence(ex.incomplete)
        item = T.cross_entropy(model.logits([seq]), [ex.label])
        if aux_mse_weight > 0 and ex.complete is not None:
            h_inc = model.intermediate([seq])
            with T.no_grad():
                h_comp = model.intermediate(
                    [model.encode_sentence(ex.complete)])
            aux = T.mse_loss(model.stack(h_inc), h_comp)
            item = item + T.mul(aux, Tensor(aux_mse_weight))
        total = item if total is None else total + item
    return T.mul(total, Tensor(1.0 / len(exs)))


class TestBatchedForward:
    @pytest.mark.parametrize("mode", ["stacked", "baseline"])
    def test_logits_match_per_sentence_rows(self, mode):
        model = make_model(mode)
        seqs = [model.encode_sentence(ex.incomplete) for ex in PAIRS]
        batched = model.logits(seqs).values
        assert batched.shape == (len(PAIRS), 2)
        for row, seq in zip(batched, seqs):
            np.testing.assert_allclose(row, model.logits([seq]).values[0],
                                       rtol=0, atol=1e-12)

    def test_predict_batch_matches_predict_sentence(self):
        model = make_model()
        probs, labels = model.predict(
            [model.encode_sentence(ex.incomplete) for ex in PAIRS])
        for ex, p, label in zip(PAIRS, probs, labels):
            single_p, single_label = model.predict_sentence(ex.incomplete)
            np.testing.assert_allclose(p, single_p, rtol=0, atol=1e-12)
            assert label == single_label

    def test_evaluate_matches_one_by_one(self, monkeypatch):
        model = make_model(seed=3)
        test = PAIRS * 7
        calls = count_calls(monkeypatch, model, "predict")
        # lengths 4 and 5: forwards of 4 or 5 sentences, so more than one
        # inference chunk
        monkeypatch.setattr(train, "INFERENCE_ROWS", 20)
        cm = evaluate(test, model)
        assert len(calls) >= 3
        np.testing.assert_array_equal(cm.counts, one_by_one(model, test))

    def test_evaluate_ignores_sentence_order(self, monkeypatch):
        model = make_model(seed=3)
        test = [PairedExample(i % 2, s) for i, s in enumerate(
            ["bad", "sweet dreamz tonight now", "good nite", "hard work pain",
             "day", "awful trouble", "happy fun day", "nite bad day",
             "dreamz", "good good good good good good"])]   # the last fills L
        assert max(sum(model.encode_sentence(ex.incomplete).attention_mask)
                   for ex in test) == 6
        monkeypatch.setattr(train, "INFERENCE_ROWS", 12)
        expected = one_by_one(model, test)
        for order in (test, test[::-1]):
            np.testing.assert_array_equal(evaluate(order, model).counts,
                                          expected)

    def test_cache_matches_per_sentence_intermediate(self, monkeypatch):
        model = make_model()
        pairs = PAIRS * 4
        calls = count_calls(monkeypatch, model, "intermediate")
        # 5 sentences per full-width forward of L=6: more than one
        # inference chunk, the last one short
        monkeypatch.setattr(train, "INFERENCE_ROWS", 30)
        cached = cache_embeddings(pairs, model)
        assert len(calls) == 2 * 5
        assert [h.shape for h in cached] == [(len(pairs), 6, 8)] * 2
        for ex, h_inc, h_comp in zip(pairs, *cached):
            for h, sentence in ((h_inc, ex.incomplete),
                                (h_comp, ex.complete)):
                single = model.intermediate([model.encode_sentence(sentence)])
                np.testing.assert_allclose(h, single.values[0],
                                           rtol=0, atol=1e-12)


class TestBatchedSteps:
    def test_phase1_step(self):
        model = make_model()
        cached = cache_embeddings(PAIRS, model)
        batch = [4, 0, 3, 1, 5]

        def reference():
            total = None
            for i in batch:
                h_inc, h_comp = (Tensor(h[i]) for h in cached)
                item = T.mse_loss(model.stack(h_inc), h_comp)
                total = item if total is None else total + item
            return T.mul(total, Tensor(1.0 / len(batch)))

        assert_same_step(model, reference,
                         lambda: phase1_loss(model, cached, batch))

    @pytest.mark.parametrize("weight", [0.0, 0.5])
    def test_phase2_step(self, weight):
        model = make_model(seed=1)
        exs = PAIRS[:4]
        assert_same_step(model, lambda: reference_phase2(model, exs, weight),
                         lambda: phase2_loss(model, exs, weight))

    def test_phase2_step_with_some_unpaired_examples(self):
        # aux is weighted 1/B per paired example, B counting the unpaired
        model = make_model(seed=2)
        exs = [PAIRS[0], PairedExample(1, "bad day", None), PAIRS[2],
               PairedExample(0, "good nite", None), PAIRS[4]]
        assert_same_step(model, lambda: reference_phase2(model, exs, 0.5),
                         lambda: phase2_loss(model, exs, 0.5))

    def test_phase2_step_with_no_paired_example(self):
        model = make_model(seed=2)
        exs = [PairedExample(ex.label, ex.incomplete) for ex in PAIRS[:3]]
        assert_same_step(model, lambda: reference_phase2(model, exs, 0.5),
                         lambda: phase2_loss(model, exs, 0.5))

    def test_one_stack_forward_per_phase2_step(self, monkeypatch):
        # the aux term reuses the classification forward's stack output
        calls = []
        compress = DenoiseStack.compress

        def spy(stack, h_inc):
            calls.append(h_inc.shape)
            return compress(stack, h_inc)

        monkeypatch.setattr(DenoiseStack, "compress", spy)
        model = make_model(seed=5)
        cfg = TrainConfig(phase2_epochs=2, batch_size=4, aux_mse_weight=0.5)
        train_phase2(PAIRS, model, cfg)
        assert len(calls) == 2 * 2   # 2 epochs of 2 steps (6 examples, B=4)

    def test_baseline_ignores_aux(self):
        model = make_model("baseline", seed=4)
        exs = PAIRS[:3]
        assert_same_step(model, lambda: reference_phase2(model, exs, 0.0),
                         lambda: phase2_loss(model, exs, 0.5))


class TestBatchedAttention:
    def setup_method(self):
        cfg = EncoderConfig(hidden_size=8, seq_len=4, num_layers=1,
                            num_heads=2, ff_size=12, vocab_size=10)
        self.blk = EncoderParams(
            cfg, ParamTable(np.random.default_rng(20))).blocks[0]
        self.x = np.random.default_rng(21).normal(size=(3, 4, 8))

    def test_rows_match_unbatched_calls(self):
        masks = [(1, 1, 1, 0), (1, 1, 0, 0), (0, 0, 0, 0)]
        out = self_attention(Tensor(self.x), masks, self.blk, 2).values
        for b, mask in enumerate(masks):
            single = self_attention(Tensor(self.x[b]), mask, self.blk, 2)
            np.testing.assert_allclose(out[b], single.values,
                                       rtol=0, atol=1e-12)

    def test_fully_masked_row_attends_to_position_zero(self):
        masks = [(1, 1, 1, 1), (0, 0, 0, 0), (1, 1, 0, 0)]
        out = self_attention(Tensor(self.x), masks, self.blk, 2).values
        first_only = self_attention(Tensor(self.x[1]), (1, 0, 0, 0),
                                    self.blk, 2).values
        np.testing.assert_allclose(out[1], first_only, rtol=0, atol=1e-12)

    def test_gradcheck_partly_and_fully_masked_rows(self):
        results = {r.name: r for r in run_block_checks()}
        assert results["batched_attention"].passed


def graph_leaves(out):
    """Every tensor without parents that backward can reach from ``out``."""
    seen, todo, leaves = set(), [out], []
    while todo:
        t = todo.pop()
        if id(t) not in seen:
            seen.add(id(t))
            todo.extend(t._parents)
            if not t._parents:
                leaves.append(t)
    return leaves


class TestConstantsStayOutOfTheGraph:
    def test_attention_scale_and_mask_bias(self):
        cfg = EncoderConfig(hidden_size=8, seq_len=4, num_layers=1,
                            num_heads=2, ff_size=12, vocab_size=10)
        blk = EncoderParams(
            cfg, ParamTable(np.random.default_rng(20))).blocks[0]
        x = Tensor(np.random.default_rng(21).normal(size=(2, 4, 8)),
                   requires_grad=True)
        out = self_attention(x, [(1, 1, 0, 0), (1, 1, 1, 1)], blk, 2)
        # the leaves are the input and the attention weights: neither the
        # 1/sqrt(dh) scale nor the mask bias is reachable
        attention = [blk.wq, blk.bq, blk.wk, blk.bk, blk.wv, blk.bv,
                     blk.wo, blk.bo]
        assert ({id(t) for t in graph_leaves(out)}
                == {id(t) for t in [x] + attention})

    def test_cached_rows_in_phase1_loss(self):
        model = make_model()
        cached = cache_embeddings(PAIRS, model)
        loss = phase1_loss(model, cached, [4, 0, 3])
        assert ({id(t) for t in graph_leaves(loss)}
                == {id(p) for p in model.denoise_parameters()})


class TestNoGrad:
    def test_values_bit_identical_to_graph_forward(self):
        model = make_model()
        seqs = [model.encode_sentence(ex.incomplete) for ex in PAIRS]
        tracked = model.logits(seqs)
        assert tracked._parents
        with T.no_grad():
            free = model.logits(seqs)
        np.testing.assert_array_equal(free.values, tracked.values)

    def test_outputs_have_no_parents_or_closures(self):
        model = make_model()
        with T.no_grad():
            out = model.logits([model.encode_sentence("good nite")])
            loss = T.cross_entropy(out, [0])
        for t in (out, loss):
            assert t._parents == () and t._vjps == ()

    def test_previous_mode_restored_after_exception(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(RuntimeError):
            with T.no_grad():
                raise RuntimeError("inside the block")
        assert (x + x)._parents

    def test_nested_blocks_restore_the_outer_mode(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with T.no_grad():
            with T.no_grad():
                pass
            assert not (x + x)._parents
        assert (x + x)._parents

    def test_inference_paths_build_no_graph(self):
        model = make_model()
        built = []

        def spy(method):
            def wrapper(*args, **kwargs):
                out = method(*args, **kwargs)
                built.append(bool(out._parents))
                return out
            return wrapper

        model.logits = spy(model.logits)
        model.intermediate = spy(model.intermediate)
        model.predict_sentence("good nite")
        evaluate(PAIRS, model)
        cache_embeddings(PAIRS, model)
        assert built and not any(built)
