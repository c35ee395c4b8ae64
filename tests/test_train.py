import numpy as np
import pytest

from denoiseclf import train
from denoiseclf.data import PairedExample, sentences_of
from denoiseclf.denoise import DenoiseConfig
from denoiseclf.encoder import EncoderConfig
from denoiseclf.errors import NonFiniteError
from denoiseclf.metrics import DataError
from denoiseclf.model import ModelConfig, TextClassifier
from denoiseclf.tensor import Adam, Tensor
from denoiseclf.tokenizer import build_vocab
from denoiseclf.train import (TrainConfig, cache_embeddings, evaluate, fit,
                              train_phase1, train_phase2, warmup_linear)

PAIRS = [
    PairedExample(0, "good nite", "good night"),
    PairedExample(0, "sweet dreamz", "sweet dreams"),
    PairedExample(0, "happy fun day", "happy fun day"),
    PairedExample(1, "bad day", "bad day"),
    PairedExample(1, "awful trouble", "awful trouble"),
    PairedExample(1, "hard work pain", "hard work pain"),
]


def tiny_model(mode="stacked", seed=0):
    vocab = build_vocab(sentences_of(PAIRS))
    cfg = ModelConfig(
        encoder=EncoderConfig(hidden_size=8, seq_len=6, num_layers=1,
                              num_heads=2, ff_size=12,
                              vocab_size=len(vocab) + 4, num_classes=2),
        denoise=DenoiseConfig(dims=(8, 6, 4, 2)),
        n_post=1,
        mode=mode,
    )
    return TextClassifier(cfg, vocab, seed=seed)


def logged_after_steps(monkeypatch):
    """A ``log`` callback that stores (Adam steps taken so far, a copy of
    the record) for every call; a spy on ``Adam.step`` counts the steps."""
    steps = [0]
    step = Adam.step

    def counting_step(self):
        steps[0] += 1
        step(self)

    monkeypatch.setattr(Adam, "step", counting_step)
    calls = []
    return calls, lambda record: calls.append((steps[0], dict(record)))


class TestSchedule:
    def test_boundary_values(self):
        total = 100  # warmup ends at step 10
        assert warmup_linear(0, total, 0.1) == 0.0
        assert warmup_linear(10, total, 0.1) == 1.0
        assert warmup_linear(5, total, 0.1) == pytest.approx(0.5)
        assert warmup_linear(55, total, 0.1) == pytest.approx(0.5)
        assert warmup_linear(100, total, 0.1) == 0.0

    def test_single_peak_and_continuity(self):
        total = 37
        values = [warmup_linear(s, total, 0.1) for s in range(total + 1)]
        peak = values.index(max(values))
        assert all(b >= a for a, b in zip(values[:peak], values[1:peak + 1]))
        assert all(b <= a for a, b in zip(values[peak:], values[peak + 1:]))
        assert max(values) == 1.0
        # warmup spans ceil(3.7) = 4 steps, so increments are exactly 1/4
        assert all(abs(b - a) <= 0.25 + 1e-12
                   for a, b in zip(values, values[1:]))

    def test_warmup_rounds_up(self):
        # ceil(0.1 * 7) = 1: full factor from the first step
        assert warmup_linear(1, 7, 0.1) == 1.0

    def test_all_warmup(self):
        assert warmup_linear(5, 10, 1.0) == 0.5
        assert warmup_linear(10, 10, 1.0) == 1.0


class TestPhase1:
    def test_loss_curve_decreases(self):
        model = tiny_model()
        cfg = TrainConfig(phase1_epochs=40, phase1_lr=5e-3, batch_size=3,
                          seed=0)
        curve = train_phase1(PAIRS, model, cfg)
        assert len(curve) == 40
        assert curve[-1] < 0.5 * curve[0]

    def test_only_denoise_parameters_move(self):
        model = tiny_model()
        before = {name: p.values.copy()
                  for name, p in model.named_parameters()}
        cfg = TrainConfig(phase1_epochs=3, phase1_lr=1e-2, batch_size=3)
        train_phase1(PAIRS, model, cfg)
        for name, p in model.named_parameters():
            if name.startswith("stack."):
                assert not np.array_equal(p.values, before[name]), name
            else:
                np.testing.assert_array_equal(p.values, before[name])

    def test_zero_lr_is_inert(self):
        model = tiny_model()
        before = {name: p.values.copy()
                  for name, p in model.named_parameters()}
        cfg = TrainConfig(phase1_epochs=2, phase1_lr=0.0, batch_size=3)
        curve = train_phase1(PAIRS, model, cfg)
        assert curve[0] == pytest.approx(curve[1])
        for name, p in model.named_parameters():
            np.testing.assert_array_equal(p.values, before[name])

    def test_requires_paired_data(self):
        model = tiny_model()
        broken = [PairedExample(0, "good nite", None)]
        with pytest.raises(DataError):
            train_phase1(broken, model, TrainConfig())
        with pytest.raises(DataError):
            train_phase1([], model, TrainConfig())

    def test_determinism(self):
        curves = []
        for _ in range(2):
            model = tiny_model(seed=2)
            cfg = TrainConfig(phase1_epochs=5, phase1_lr=1e-3, batch_size=2,
                              seed=3)
            curves.append(train_phase1(PAIRS, model, cfg))
        assert curves[0] == curves[1]

    def test_cached_embeddings_are_detached(self):
        model = tiny_model()
        cached = cache_embeddings(PAIRS[:2], model)
        # plain arrays, so they hold no graph
        assert [type(h) for h in cached] == [np.ndarray] * 2

    def test_log_callback_schema(self, monkeypatch):
        calls, log = logged_after_steps(monkeypatch)
        cfg = TrainConfig(phase1_epochs=3, phase1_lr=1e-3, batch_size=4)
        curve = train_phase1(PAIRS, tiny_model(), cfg, log=log)
        # 6 pairs in batches of 4: 2 steps per epoch, logged after the 2nd
        assert [steps for steps, _ in calls] == [2, 4, 6]
        records = [r for _, r in calls]
        assert [(r["phase"], r["epoch"]) for r in records] == [
            (1, 0), (1, 1), (1, 2)]
        assert all(set(r) == {"phase", "epoch", "loss", "lr"}
                   for r in records)
        assert [r["loss"] for r in records] == curve
        assert all(r["lr"] == cfg.phase1_lr for r in records)

    def test_non_finite_loss_stops_before_backward_and_adam(
            self, monkeypatch):
        def overflowing(model, cached, batch):
            # a target 1e160 away: the mean square overflows to inf, while
            # its gradient 2 * diff / n stays finite
            inc, comp = cached
            with np.errstate(over="ignore"):
                return model.stack.loss(Tensor(inc[batch]),
                                        comp[batch] + 1e160)

        model = tiny_model()
        cached = cache_embeddings(PAIRS, model)
        loss = overflowing(model, cached, [0, 1])
        assert loss.values == np.inf
        loss.backward()
        assert all(np.isfinite(p.grad).all()
                   for p in model.denoise_parameters())
        for p in model.denoise_parameters():
            p.grad = None

        losses = [train.phase1_loss] * 2 + [overflowing]
        monkeypatch.setattr(train, "phase1_loss",
                            lambda *args: losses.pop(0)(*args))
        snapshot = {}

        def log(record):
            snapshot.update((name, p.values.copy())
                            for name, p in model.named_parameters())
        cfg = TrainConfig(phase1_epochs=3, phase1_lr=1e-2, batch_size=4)
        # 6 pairs in batches of 4: the third step opens the second epoch
        with pytest.raises(NonFiniteError,
                           match=r"^phase 1, epoch 1, step 3: batch loss "
                                 r"is inf$"):
            train_phase1(PAIRS, model, cfg, log=log)
        for name, p in model.named_parameters():
            np.testing.assert_array_equal(p.values, snapshot[name])
            assert p.grad is None, name


class TestPhase2:
    def test_loss_decreases_and_fits_training_set(self):
        model = tiny_model()
        cfg = TrainConfig(phase1_epochs=20, phase1_lr=5e-3,
                          phase2_epochs=60, phase2_lr=5e-3, batch_size=3,
                          seed=1)
        _, history = fit(PAIRS, model, cfg)
        assert len(history) == 60
        assert history[-1]["loss"] < history[0]["loss"]
        cm = evaluate(PAIRS, model)
        assert np.trace(cm.counts) >= 5  # fits 6 training sentences

    def test_baseline_mode_keeps_denoise_frozen(self):
        model = tiny_model(mode="baseline")
        before = {name: p.values.copy()
                  for name, p in model.named_parameters()}
        cfg = TrainConfig(phase2_epochs=2, phase2_lr=1e-3, batch_size=3)
        curve, _ = fit(PAIRS, model, cfg)  # a baseline runs no phase 1
        assert curve == []
        stack_or_post = [n for n in before
                         if n.startswith(("stack.", "post."))]
        for name in stack_or_post:
            np.testing.assert_array_equal(
                dict(model.named_parameters())[name].values, before[name])
        assert not np.array_equal(
            dict(model.named_parameters())["head.w"].values,
            before["head.w"])

    def test_aux_mse_changes_trajectory(self):
        histories = []
        for weight in (0.0, 1.0):
            model = tiny_model(seed=5)
            cfg = TrainConfig(phase2_epochs=3, phase2_lr=1e-3, batch_size=3,
                              seed=5, aux_mse_weight=weight)
            histories.append(train_phase2(PAIRS, model, cfg))
        assert histories[0][-1]["loss"] != histories[1][-1]["loss"]

    def test_log_callback_schema(self, monkeypatch):
        calls, log = logged_after_steps(monkeypatch)
        cfg = TrainConfig(phase2_epochs=3, phase2_lr=1e-3, batch_size=4,
                          warmup_proportion=0.5)
        # a stacked model with no pairs runs no phase 1
        unpaired = [PairedExample(ex.label, ex.incomplete) for ex in PAIRS]
        curve, history = fit(unpaired, tiny_model(seed=6), cfg, log=log)
        assert curve == []
        # 6 examples in batches of 4: 2 steps per epoch, 6 in all
        assert [steps for steps, _ in calls] == [2, 4, 6]
        records = [r for _, r in calls]
        assert records == history
        assert [(r["phase"], r["epoch"]) for r in records] == [
            (2, 0), (2, 1), (2, 2)]
        assert all(set(r) == {"phase", "epoch", "loss", "lr"}
                   for r in records)
        # each record carries the lr of its epoch's last step; the last
        # one is the schedule's end, warmup_linear(total, total, ...)
        assert [r["lr"] for r in records] == [
            1e-3 * warmup_linear(s, 6, cfg.warmup_proportion)
            for s in (2, 4, 6)]

    def test_empty_corpus_rejected(self):
        with pytest.raises(DataError):
            train_phase2([], tiny_model(), TrainConfig())

    def test_fit_is_phase_1_on_the_pairs_then_phase_2(self):
        data = PAIRS + [PairedExample(1, "late train again")]
        cfg = TrainConfig(phase1_epochs=3, phase2_epochs=2, phase2_lr=1e-3,
                          batch_size=4, aux_mse_weight=0.5)
        model, ref = tiny_model(seed=3), tiny_model(seed=3)
        assert fit(data, model, cfg) == (train_phase1(PAIRS, ref, cfg),
                                         train_phase2(data, ref, cfg))
        for (name, p), q in zip(model.named_parameters(), ref.parameters()):
            assert p.values.tobytes() == q.values.tobytes(), name

    @pytest.mark.parametrize("aux", [0.0, 0.5])
    def test_each_sentence_is_encoded_once_per_call(self, aux, monkeypatch):
        # the complete sentences only when the aux term reads them
        model = tiny_model(seed=9)
        sentences = []
        encode = model.encode_sentence

        def spy(sentence):
            sentences.append(sentence)
            return encode(sentence)

        monkeypatch.setattr(model, "encode_sentence", spy)
        cfg = TrainConfig(phase2_epochs=3, phase2_lr=1e-3, batch_size=4,
                          aux_mse_weight=aux)
        train_phase2(PAIRS, model, cfg)
        expected = sentences_of(PAIRS) if aux else \
            [ex.incomplete for ex in PAIRS]
        assert sorted(sentences) == sorted(expected)

    def test_determinism(self):
        losses = []
        for _ in range(2):
            model = tiny_model(seed=7)
            cfg = TrainConfig(phase2_epochs=3, phase2_lr=1e-3, batch_size=2,
                              seed=8)
            losses.append([h["loss"] for h in train_phase2(PAIRS, model, cfg)])
        assert losses[0] == losses[1]


class TestEvaluate:
    def test_counts_sum_to_corpus_size(self):
        model = tiny_model()
        cm = evaluate(PAIRS, model)
        assert cm.counts.sum() == len(PAIRS)

    def test_empty_test_set(self):
        with pytest.raises(DataError):
            evaluate([], tiny_model())

    def test_never_reads_complete_column(self):
        model = tiny_model()
        with_complete = evaluate(PAIRS, model)
        stripped = [PairedExample(ex.label, ex.incomplete, None)
                    for ex in PAIRS]
        without = evaluate(stripped, model)
        np.testing.assert_array_equal(with_complete.counts, without.counts)

    def test_position_budget_is_read_at_call_time(self, monkeypatch):
        model = tiny_model()
        calls = []
        predict = model.predict

        def spy(seqs):
            calls.append(seqs)
            return predict(seqs)

        monkeypatch.setattr(model, "predict", spy)
        # real lengths 3 to 6 in mixed order; the last sentence is cut to
        # fill L=6
        test = [PairedExample(i % 2, s, None) for i, s in enumerate(
            ["happy fun day", "bad", "good nite", "hard work pain again",
             "day", "sweet dreamz", "fun", "awful trouble day bad day"])]
        expected = sorted(model.encode_sentence(ex.incomplete).token_ids
                          for ex in test)
        assert len(set(expected)) == len(test)   # each id list is one example
        for budget, sizes in ((256, [8]), (9, [3, 2, 1, 1, 1]),
                              (4, [1] * 8)):
            monkeypatch.setattr(train, "INFERENCE_ROWS", budget)
            calls.clear()
            evaluate(test, model)
            assert [len(call) for call in calls] == sizes
            lengths = [[sum(s.attention_mask) for s in call]
                       for call in calls]
            # a sentence wider than the budget (5 and 6 > 4) runs alone
            for call in lengths:
                assert len(call) * max(call) <= budget or len(call) == 1
            flat = [n for call in lengths for n in call]
            assert flat == sorted(flat)     # shortest first
            assert flat[-1] == 6
            assert sorted(s.token_ids for call in calls
                          for s in call) == expected
