import numpy as np
import pytest

from denoiseclf import tensor as T
from denoiseclf.encoder import (EncoderConfig, EncoderParams, ParamTable,
                                embed, encode_intermediate, self_attention,
                                transformer_block)
from denoiseclf.tensor import Tensor
from denoiseclf.tokenizer import (ConfigError, VocabError, build_vocab, encode,
                                  trim_to_longest)


def tiny_config(**overrides):
    defaults = dict(hidden_size=8, seq_len=4, num_layers=1, num_heads=2,
                    ff_size=12, vocab_size=16, num_classes=2)
    defaults.update(overrides)
    return EncoderConfig(**defaults)


@pytest.fixture
def vocab():
    return build_vocab(["good night sweet dreams", "bad day hard work"])


def test_feed_forward_width_defaults_to_twice_the_hidden_size():
    assert EncoderConfig(hidden_size=16).ff_size == 32
    assert EncoderConfig().ff_size == 128


def test_config_validates_head_divisibility():
    with pytest.raises(ConfigError):
        tiny_config(hidden_size=10, num_heads=4)


class TestEmbed:
    def test_zero_tables_give_zero_output(self, vocab):
        params = EncoderParams(tiny_config(),
                               ParamTable(np.random.default_rng(0)))
        for table in (params.token_table, params.segment_table,
                      params.position_table):
            table.values[:] = 0.0
        seq = encode("good night", vocab, max_len=4)
        out = embed([seq], params)
        np.testing.assert_array_equal(out.values, np.zeros((1, 4, 8)))

    def test_marker_dimension_sums(self, vocab):
        # token table row i carries i, segment row s carries 10*s, position
        # row t carries 100*t in dimension 0; output must be the sum
        params = EncoderParams(tiny_config(),
                               ParamTable(np.random.default_rng(0)))
        for table in (params.token_table, params.segment_table,
                      params.position_table):
            table.values[:] = 0.0
        params.token_table.values[:, 0] = np.arange(16)
        params.segment_table.values[:, 0] = [0.0, 10.0]
        params.position_table.values[:, 0] = 100.0 * np.arange(4)
        seq = encode("good night", vocab, max_len=4)
        out = embed([seq], params).values[0, :, 0]
        expected = [t + 10 * s + 100 * p
                    for p, (t, s) in enumerate(zip(seq.token_ids,
                                                   seq.attention_mask))]
        np.testing.assert_array_equal(out, expected)
        # two sentences of 3 and 2 real tokens, cut to width 3: segment row
        # 1 exactly at each one's real positions, position row t at column t
        seqs = trim_to_longest([encode("good", vocab, max_len=4),
                                encode("", vocab, max_len=4)])
        out = embed(seqs, params).values[:, :, 0]
        assert out.shape == (2, 3)
        for row, seq, real in zip(out, seqs, (3, 2)):
            expected = [t + 10 * (p < real) + 100 * p
                        for p, t in enumerate(seq.token_ids)]
            np.testing.assert_array_equal(row, expected)

    def test_locality_of_token_change(self, vocab):
        params = EncoderParams(tiny_config(),
                               ParamTable(np.random.default_rng(0)))
        seq_a = encode("good night", vocab, max_len=4)
        seq_b = encode("bad night", vocab, max_len=4)
        a, b = embed([seq_a, seq_b], params).values
        assert not np.array_equal(a[1], b[1])
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[2:], b[2:])

    def test_out_of_vocab_id(self, vocab):
        params = EncoderParams(tiny_config(vocab_size=4),
                               ParamTable(np.random.default_rng(0)))
        seq = encode("good night", vocab, max_len=4)
        with pytest.raises(VocabError):
            embed([seq], params)


class TestSelfAttention:
    def test_single_token_attends_to_itself(self):
        cfg = tiny_config(seq_len=1, num_heads=1)
        params = EncoderParams(cfg, ParamTable(np.random.default_rng(1)))
        blk = params.blocks[0]
        x = Tensor(np.random.default_rng(2).normal(size=(1, 8)))
        out = self_attention(x, [1], blk, 1)
        v = x.values @ blk.wv.values + blk.bv.values
        expected = v @ blk.wo.values + blk.bo.values
        np.testing.assert_allclose(out.values, expected, atol=1e-12)

    def test_zero_queries_give_uniform_attention(self):
        cfg = tiny_config(num_heads=1)
        params = EncoderParams(cfg, ParamTable(np.random.default_rng(3)))
        blk = params.blocks[0]
        blk.wq.values[:] = 0.0
        blk.bq.values[:] = 0.0
        x = Tensor(np.random.default_rng(4).normal(size=(4, 8)))
        mask = [1, 1, 1, 0]
        out = self_attention(x, mask, blk, 1)
        v = x.values @ blk.wv.values + blk.bv.values
        uniform_ctx = np.tile(v[:3].mean(axis=0), (4, 1))
        expected = uniform_ctx @ blk.wo.values + blk.bo.values
        np.testing.assert_allclose(out.values, expected, atol=1e-10)

    def test_two_token_single_head_hand_oracle(self):
        cfg = tiny_config(seq_len=2, num_heads=1)
        params = EncoderParams(cfg, ParamTable(np.random.default_rng(5)))
        blk = params.blocks[0]
        rng = np.random.default_rng(6)
        x = Tensor(rng.normal(size=(2, 8)))
        out = self_attention(x, [1, 1], blk, 1)
        # explicit QK^T, softmax, .V evaluation
        q = x.values @ blk.wq.values + blk.bq.values
        k = x.values @ blk.wk.values + blk.bk.values
        v = x.values @ blk.wv.values + blk.bv.values
        scores = q @ k.T / np.sqrt(8)
        e = np.exp(scores - scores.max(axis=1, keepdims=True))
        att = e / e.sum(axis=1, keepdims=True)
        expected = (att @ v) @ blk.wo.values + blk.bo.values
        np.testing.assert_allclose(out.values, expected, rtol=1e-10)

    def test_attention_rows_sum_to_one_over_unmasked(self):
        cfg = tiny_config(num_heads=2)
        params = EncoderParams(cfg, ParamTable(np.random.default_rng(7)))
        blk = params.blocks[0]
        rng = np.random.default_rng(8)
        x = rng.normal(size=(4, 8))
        mask = np.array([1, 1, 0, 0], dtype=float)
        dh = 4
        for a in range(2):
            q = (x @ blk.wq.values + blk.bq.values)[:, a * dh:(a + 1) * dh]
            k = (x @ blk.wk.values + blk.bk.values)[:, a * dh:(a + 1) * dh]
            scores = q @ k.T / np.sqrt(dh) + (1 - mask)[None, :] * -1e9
            e = np.exp(scores - scores.max(axis=1, keepdims=True))
            att = e / e.sum(axis=1, keepdims=True)
            assert np.allclose(att.sum(axis=1), 1.0, atol=1e-9)
            assert np.allclose(att[:, 2:], 0.0)

    def test_all_masked_falls_back_to_first_position(self):
        cfg = tiny_config(num_heads=1)
        params = EncoderParams(cfg, ParamTable(np.random.default_rng(9)))
        blk = params.blocks[0]
        x = Tensor(np.random.default_rng(10).normal(size=(4, 8)))
        out = self_attention(x, [0, 0, 0, 0], blk, 1)
        assert np.isfinite(out.values).all()


class TestTransformerBlock:
    def test_zero_output_projections_reduce_to_layernorms(self):
        cfg = tiny_config()
        params = EncoderParams(cfg, ParamTable(np.random.default_rng(11)))
        blk = params.blocks[0]
        blk.wo.values[:] = 0.0
        blk.bo.values[:] = 0.0
        blk.w2.values[:] = 0.0
        blk.b2.values[:] = 0.0
        x = Tensor(np.random.default_rng(12).normal(size=(4, 8)))
        out = transformer_block(x, [1, 1, 1, 1], blk, cfg.num_heads)
        ln1 = T.layernorm(x, blk.ln1_g, blk.ln1_b)
        expected = T.layernorm(ln1, blk.ln2_g, blk.ln2_b)
        np.testing.assert_allclose(out.values, expected.values, atol=1e-12)

    def test_gradient_through_full_block(self):
        from denoiseclf.gradcheck import run_block_checks
        results = {r.name: r for r in run_block_checks()}
        assert results["transformer_block"].passed

    def test_pad_positions_do_not_influence_cls(self):
        cfg = tiny_config()
        params = EncoderParams(cfg, ParamTable(np.random.default_rng(13)))
        blk = params.blocks[0]
        rng = np.random.default_rng(14)
        x = rng.normal(size=(4, 8))
        mask = [1, 1, 1, 0]
        base = transformer_block(Tensor(x), mask, blk, cfg.num_heads).values
        perturbed = x.copy()
        perturbed[3] += rng.normal(size=8)
        out = transformer_block(Tensor(perturbed), mask, blk,
                                cfg.num_heads).values
        np.testing.assert_allclose(out[0], base[0], atol=1e-12)


class TestEncodeIntermediate:
    def test_output_shape_is_batch_by_seq_by_hidden(self, vocab):
        cfg = tiny_config(num_layers=2)
        params = EncoderParams(cfg, ParamTable(np.random.default_rng(15)))
        seq = encode("good night", vocab, max_len=4)
        assert encode_intermediate([seq], params).shape == (1, 4, 8)

    def test_determinism(self, vocab):
        cfg = tiny_config()
        params = EncoderParams(cfg, ParamTable(np.random.default_rng(16)))
        seq = encode("good night", vocab, max_len=4)
        a = encode_intermediate([seq], params).values
        b = encode_intermediate([seq], params).values
        np.testing.assert_array_equal(a, b)

    def test_pair_differing_in_one_word_differ(self, vocab):
        cfg = tiny_config()
        params = EncoderParams(cfg, ParamTable(np.random.default_rng(17)))
        h_inc = encode_intermediate([encode("good night", vocab, 4)], params)
        h_comp = encode_intermediate([encode("bad night", vocab, 4)], params)
        assert np.abs(h_inc.values - h_comp.values).max(axis=0).max() > 0

    def test_pad_invariance_of_cls(self, vocab):
        # same content at two padded lengths: the [CLS] row must agree
        cfg_short = tiny_config(seq_len=6)
        short = ParamTable(np.random.default_rng(18))
        params_short = EncoderParams(cfg_short, short)
        cfg_long = tiny_config(seq_len=10)
        long = ParamTable(np.random.default_rng(19))
        params_long = EncoderParams(cfg_long, long)
        # share all weights; copy the shorter position table into the longer
        for (_, ps), (_, pl) in zip(short.tensors.items(),
                                    long.tensors.items()):
            if pl.values.shape == ps.values.shape:
                pl.values = ps.values.copy()
            else:
                pl.values[:ps.values.shape[0]] = ps.values.copy()
        short = encode_intermediate([encode("good night", vocab, 6)],
                                    params_short).values
        long = encode_intermediate([encode("good night", vocab, 10)],
                                   params_long).values
        np.testing.assert_allclose(long[0, 0], short[0, 0], atol=1e-9)

    def test_full_model_gradient_tiny_config(self):
        from denoiseclf.gradcheck import run_end_to_end_check
        result = run_end_to_end_check()
        assert result.max_rel_err < 1e-3
