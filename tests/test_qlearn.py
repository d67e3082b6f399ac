import numpy as np
import pytest
from scipy import stats

from treecrawl.qlearn import (AgentConfig, DimensionMismatchError, QNetwork,
                              ReplayBatch, ReplayBuffer, ReplayRecord,
                              TrainingDivergenceError,
                              batch_targets, ddqn_target, seed_replay,
                              segment_argmax, train_step)


def zero_net(dim=8, hidden=(5, 5)):
    net = QNetwork(dim, hidden=hidden, rng=np.random.default_rng(0))
    for name in net.PARAM_NAMES:
        getattr(net, name)[:] = 0.0
    return net


def batch_of(records):
    """The records as one replay batch, in order."""
    buf = ReplayBuffer(capacity=len(records))
    for record in records:
        buf.add(record)
    return buf.gather(np.arange(len(records)))


def records_of(batch):
    """Split a replay batch back into one record per row."""
    nexts = np.split(batch.next_vectors, np.cumsum(batch.sizes)[:-1])
    return [ReplayRecord(x=x, reward=float(r), next_vectors=n)
            for x, r, n in zip(batch.x, batch.rewards, nexts)]


def mse(net, X, y):
    q = net.forward(X)
    return float(np.mean((q - y) ** 2))


def finite_difference_grads(net, X, y, h=1e-6):
    out = {}
    for name in net.PARAM_NAMES:
        p = getattr(net, name)
        g = np.zeros_like(p)
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            i = it.multi_index
            orig = p[i]
            p[i] = orig + h
            lp = mse(net, X, y)
            p[i] = orig - h
            lm = mse(net, X, y)
            p[i] = orig
            g[i] = (lp - lm) / (2 * h)
        out[name] = g
    return out


def max_relative_error(analytic, numeric):
    worst = 0.0
    for name in analytic:
        a, n = analytic[name], numeric[name]
        rel = np.abs(a - n) / np.maximum(np.abs(a) + np.abs(n), 1e-8)
        worst = max(worst, float(rel.max()))
    return worst


class _FixedNet:
    """Maps each input row to a preset value; stands in for a trained net."""

    def __init__(self, mapping):
        self.mapping = {tuple(k): v for k, v in mapping.items()}

    def forward(self, x):
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            return self.mapping[tuple(x)]
        return np.array([self.mapping[tuple(row)] for row in x])


class ReferenceNet:
    """The value network written plainly: one array per parameter, and an
    out-of-place forward, backward and descent step. The network's in-place
    passes over one parameter buffer must give the same bits."""

    def __init__(self, net):
        self.activation = net.activation
        self.p = {name: getattr(net, name).copy() for name in net.PARAM_NAMES}

    def _act(self, z):
        return np.maximum(z, 0.0) if self.activation == "relu" else np.tanh(z)

    def _act_grad(self, z):
        if self.activation == "relu":
            return (z > 0.0).astype(np.float64)
        t = np.tanh(z)
        return 1.0 - t * t

    def _layers(self, X):
        p = self.p
        z1 = X @ p["W1"] + p["b1"]
        a1 = self._act(z1)
        z2 = a1 @ p["W2"] + p["b2"]
        a2 = self._act(z2)
        return z1, a1, z2, a2, (a2 @ p["W3"] + p["b3"])[:, 0]

    def forward(self, X):
        return self._layers(np.atleast_2d(X))[-1]

    def loss_and_gradients(self, X, y):
        p, n = self.p, X.shape[0]
        z1, a1, z2, a2, q = self._layers(X)
        diff = q - y
        dq = (2.0 * diff / n)[:, None]
        dz2 = (dq @ p["W3"].T) * self._act_grad(z2)
        dz1 = (dz2 @ p["W2"].T) * self._act_grad(z1)
        grads = {"W3": a2.T @ dq, "b3": dq.sum(axis=0),
                 "W2": a1.T @ dz2, "b2": dz2.sum(axis=0),
                 "W1": X.T @ dz1, "b1": dz1.sum(axis=0)}
        return float(np.mean(diff * diff)), grads

    def apply_gradients(self, grads, learning_rate):
        for name, param in self.p.items():
            param -= learning_rate * grads[name]


def padded_argmax(values, sizes):
    """Each non-empty segment's argmax through a -inf padded matrix: the
    formulation segment_argmax replaces."""
    filled = np.arange(max(sizes.max(), 1)) < sizes[:, None]
    padded = np.full(filled.shape, -np.inf)
    padded[filled] = values
    return (np.cumsum(sizes) - sizes + padded.argmax(axis=1))[sizes > 0]


def reference_train_step(online, target, batch, cfg):
    ys = batch.rewards.copy()
    if batch.next_vectors.shape[0]:
        chosen = padded_argmax(online.forward(batch.next_vectors), batch.sizes)
        ys[batch.sizes > 0] += cfg.gamma * target.forward(batch.next_vectors[chosen])
    loss, grads = online.loss_and_gradients(batch.x, ys)
    online.apply_gradients(grads, cfg.learning_rate)
    return loss


class TestForward:
    def test_zero_net_outputs_zero(self):
        net = zero_net()
        rng = np.random.default_rng(1)
        for _ in range(10):
            assert net.forward(rng.normal(size=8)) == 0.0

    def test_hand_computed_identity_chain(self):
        net = QNetwork(1, hidden=(1, 1), rng=np.random.default_rng(0))
        for name in ("W1", "W2", "W3"):
            getattr(net, name)[:] = 1.0
        for name in ("b1", "b2", "b3"):
            getattr(net, name)[:] = 0.0
        assert net.forward(np.array([2.0])) == 2.0

    def test_finite_on_random_inputs(self):
        net = QNetwork(8, rng=np.random.default_rng(2))
        rng = np.random.default_rng(3)
        X = rng.normal(scale=5.0, size=(10_000, 8))
        out = net.forward(X)
        assert np.all(np.isfinite(out))

    def test_dimension_mismatch(self):
        net = QNetwork(8, rng=np.random.default_rng(0))
        with pytest.raises(DimensionMismatchError):
            net.forward(np.zeros(6))


class TestGradients:
    def test_backprop_matches_central_differences(self):
        rng = np.random.default_rng(0)
        net = QNetwork(8, hidden=(5, 5), rng=rng)
        X = rng.normal(size=(7, 8))
        y = rng.normal(size=7)
        _, grads = net.loss_and_gradients(X, y)
        fd = finite_difference_grads(net, X, y)
        assert max_relative_error(grads, fd) < 1e-4

    def test_gradcheck_with_tanh(self):
        rng = np.random.default_rng(4)
        net = QNetwork(6, hidden=(4, 3), activation="tanh", rng=rng)
        X = rng.normal(size=(5, 6))
        y = rng.normal(size=5)
        _, grads = net.loss_and_gradients(X, y)
        fd = finite_difference_grads(net, X, y)
        assert max_relative_error(grads, fd) < 1e-4


TIE_COLUMN = 7


def tied_records(rng, dim, count):
    """Replay records whose x is 0 in column TIE_COLUMN and whose follow-ups
    repeat rows of a pool of three pairs that differ only in that column. A
    network whose W1 row TIE_COLUMN is zero keeps it so through training on
    them, and values both rows of a pair alike: argmax ties between distinct
    rows, which a ReplayBuffer keeps apart."""
    pool = np.repeat(rng.normal(size=(3, dim)), 2, axis=0)
    pool[:, TIE_COLUMN] = rng.normal(size=6)
    records = []
    for _ in range(count):
        x = rng.normal(size=dim)
        x[TIE_COLUMN] = 0.0
        records.append(ReplayRecord(x=x, reward=float(rng.integers(0, 2)),
                                    next_vectors=pool[rng.integers(0, 6, size=int(rng.integers(0, 6)))]))
    return records


def max_ties(values, sizes):
    """How many segments hold their maximum more than once."""
    segments = np.split(values, np.cumsum(sizes)[:-1])
    return sum(int((seg == seg.max()).sum() > 1) for seg in segments if seg.size)


BATCH_SIZES = [1, 3, 5, 32, 33, 200]


class TestMatchesReference:
    """Bit for bit, the network's passes equal ReferenceNet's."""

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    @pytest.mark.parametrize("n", BATCH_SIZES)
    @pytest.mark.parametrize("dim, hidden", [(8, (64, 32)), (7, (5, 3))])
    def test_forward_loss_and_gradients(self, activation, n, dim, hidden):
        rng = np.random.default_rng(n)
        net = QNetwork(dim, hidden=hidden, activation=activation, rng=rng)
        ref = ReferenceNet(net)
        X = rng.normal(size=(n, dim))
        y = rng.normal(size=n)
        assert np.array_equal(net.forward(X), ref.forward(X))
        assert net.forward(X[-1]) == ref.forward(X[-1])[0]
        loss, grads = net.loss_and_gradients(X, y)
        ref_loss, ref_grads = ref.loss_and_gradients(X, y)
        assert loss == ref_loss
        for name in net.PARAM_NAMES:
            assert np.array_equal(grads[name], ref_grads[name]), name

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    @pytest.mark.parametrize("n", BATCH_SIZES)
    def test_parameters_after_300_train_steps(self, activation, n):
        rng = np.random.default_rng(100 + n)
        online = QNetwork(8, activation=activation, rng=rng)
        target = online.clone()
        online.W1[TIE_COLUMN] = 0.0  # ties for the online net, not the target
        ref_online, ref_target = ReferenceNet(online), ReferenceNet(target)
        buf = ReplayBuffer(capacity=64)
        for record in tied_records(rng, 8, 64):
            buf.add(record)
        cfg = AgentConfig(learning_rate=0.01)
        tied = 0
        for _ in range(300):
            batch = buf.sample(rng, n)
            tied += max_ties(online.forward(batch.next_vectors), batch.sizes)
            loss = train_step(online, target, batch, cfg)
            assert loss == reference_train_step(ref_online, ref_target, batch, cfg)
        assert tied > 0 and not online.W1[TIE_COLUMN].any()
        for name in online.PARAM_NAMES:
            assert np.array_equal(getattr(online, name), ref_online.p[name]), name
            assert np.array_equal(getattr(target, name), ref_target.p[name]), name


class TestParameterBuffer:
    def test_unknown_activation_rejected_at_construction(self):
        with pytest.raises(ValueError, match="'sigmoid'"):
            QNetwork(4, activation="sigmoid")

    def test_parameters_are_views_of_one_buffer(self):
        net = QNetwork(4, hidden=(3, 2), rng=np.random.default_rng(0))
        assert net.params.flat.size == 4 * 3 + 3 + 3 * 2 + 2 + 2 * 1 + 1
        net.params.flat[:] = 0.0
        assert net.forward(np.ones(4)) == 0.0
        for name in net.PARAM_NAMES:
            assert np.shares_memory(getattr(net, name), net.params.flat)

    def test_applying_gradients_to_a_clone_leaves_the_source(self):
        rng = np.random.default_rng(15)
        net = QNetwork(6, hidden=(4, 3), rng=rng)
        X, y = rng.normal(size=(9, 6)), rng.normal(size=9)
        before = net.params.flat.copy()
        _, own = net.loss_and_gradients(X, y)
        own_before = own.flat.copy()
        twin = net.clone()
        _, grads = twin.loss_and_gradients(X + 1.0, y)
        twin.apply_gradients(grads, 0.1)
        assert np.array_equal(net.params.flat, before)
        assert np.array_equal(own.flat, own_before)
        assert not np.array_equal(twin.params.flat, before)
        assert not np.shares_memory(twin.params.flat, net.params.flat)

    def test_divergence_names_the_first_non_finite_parameter(self):
        rng = np.random.default_rng(16)
        net = QNetwork(4, hidden=(3, 3), rng=rng)
        _, grads = net.loss_and_gradients(rng.normal(size=(2, 4)), np.zeros(2))
        grads["b3"][0] = np.nan
        grads["W2"][1, 1] = np.inf
        with pytest.raises(TrainingDivergenceError, match="W2 became non-finite"):
            net.apply_gradients(grads, 0.1)


class TestSegmentArgmax:
    def test_matches_padded_on_ties_and_empty_segments(self):
        rng = np.random.default_rng(14)
        for _ in range(300):
            sizes = rng.integers(0, 5, size=int(rng.integers(1, 12)))
            values = rng.integers(-1, 2, size=int(sizes.sum())).astype(float)
            values[rng.random(values.size) < 0.1] = -np.inf
            assert np.array_equal(segment_argmax(values, sizes), padded_argmax(values, sizes))

    def test_nan_picks_the_first_nan_like_argmax(self):
        values = np.array([1.0, np.nan, 2.0, np.nan, 5.0, 3.0, np.nan])
        sizes = np.array([0, 4, 0, 1, 2, 0])
        assert segment_argmax(values, sizes).tolist() == [1, 4, 6]
        assert padded_argmax(values, sizes).tolist() == [1, 4, 6]
        rng = np.random.default_rng(17)
        for _ in range(100):
            sizes = rng.integers(0, 5, size=8)
            values = rng.integers(0, 3, size=int(sizes.sum())).astype(float)
            values[rng.random(values.size) < 0.2] = np.nan
            assert np.array_equal(segment_argmax(values, sizes), padded_argmax(values, sizes))

    def test_no_follow_ups(self):
        assert segment_argmax(np.empty(0), np.zeros(3, dtype=np.int64)).size == 0


class TestDdqnTarget:
    def test_gamma_zero_equals_reward(self):
        rng = np.random.default_rng(5)
        online = QNetwork(4, hidden=(3, 3), rng=rng)
        target = online.clone()
        record = ReplayRecord(x=np.zeros(4), reward=0.75,
                              next_vectors=rng.normal(size=(6, 4)))
        assert ddqn_target(record, online, target, gamma=0.0) == 0.75

    def test_empty_next_set_equals_reward(self):
        online = zero_net(4, (3, 3))
        record = ReplayRecord(x=np.zeros(4), reward=1.0,
                              next_vectors=np.empty((0, 4)))
        assert ddqn_target(record, online, online, gamma=0.9) == 1.0

    def test_three_candidate_worked_example(self):
        rows = [np.array([1.0, 0, 0]), np.array([0, 1.0, 0]), np.array([0, 0, 1.0])]
        online = _FixedNet({tuple(rows[0]): 0.2, tuple(rows[1]): 0.9, tuple(rows[2]): 0.5})
        target = _FixedNet({tuple(rows[0]): 0.1, tuple(rows[1]): 0.4, tuple(rows[2]): 0.8})
        record = ReplayRecord(x=np.zeros(3), reward=1.0, next_vectors=np.stack(rows))
        # online argmax picks index 1, evaluated by the target net: 1 + 0.5*0.4
        assert ddqn_target(record, online, target, gamma=0.5) == pytest.approx(1.2)

    def test_identical_nets_reduce_to_max_form(self):
        rng = np.random.default_rng(6)
        online = QNetwork(4, hidden=(4, 4), rng=rng)
        for _ in range(50):
            record = ReplayRecord(x=rng.normal(size=4), reward=float(rng.integers(0, 2)),
                                  next_vectors=rng.normal(size=(int(rng.integers(1, 8)), 4)))
            y = ddqn_target(record, online, online, gamma=0.7)
            max_form = record.reward + 0.7 * float(np.max(online.forward(record.next_vectors)))
            assert y == pytest.approx(max_form, abs=1e-12)

    def test_batch_targets_match_single(self):
        rng = np.random.default_rng(7)
        online = QNetwork(5, hidden=(4, 4), rng=rng)
        target = QNetwork(5, hidden=(4, 4), rng=rng)
        records = []
        buf = ReplayBuffer(capacity=20)
        for _ in range(20):
            k = int(rng.integers(0, 6))
            records.append(ReplayRecord(x=rng.normal(size=5),
                                        reward=float(rng.integers(0, 2)),
                                        next_vectors=rng.normal(size=(k, 5))))
            buf.add(records[-1])
        # A sampled batch repeats and reorders records, as in training.
        idx = np.random.default_rng(3).integers(0, 20, size=40)
        batch = buf.sample(np.random.default_rng(3), 40)
        batched = batch_targets(batch, online, target, gamma=0.9)
        singles = [ddqn_target(records[i], online, target, 0.9) for i in idx]
        assert np.allclose(batched, singles, atol=1e-12)


class TestTrainStep:
    def test_zero_gradient_when_predictions_match_targets(self):
        net = zero_net(4, (3, 3))
        target = zero_net(4, (3, 3))
        records = [ReplayRecord(x=np.ones(4) * i, reward=0.0,
                                next_vectors=np.empty((0, 4))) for i in range(4)]
        before = {n: getattr(net, n).copy() for n in net.PARAM_NAMES}
        loss = train_step(net, target, batch_of(records), AgentConfig(learning_rate=0.1))
        assert loss == 0.0
        for n in net.PARAM_NAMES:
            assert np.array_equal(before[n], getattr(net, n))

    def test_descent_reduces_loss(self):
        rng = np.random.default_rng(8)
        net = QNetwork(4, hidden=(4, 4), rng=rng)
        target = net.clone()
        record = ReplayRecord(x=rng.normal(size=4), reward=1.0,
                              next_vectors=np.empty((0, 4)))
        cfg = AgentConfig(learning_rate=1e-3, gamma=0.9)
        before = train_step(net, target, batch_of([record]), cfg)
        after = mse(net, record.x[None, :], np.array([1.0]))
        assert after < before

    def test_convergence_smoke(self):
        rng = np.random.default_rng(0)
        net = QNetwork(8, hidden=(16, 16), rng=rng)
        target = net.clone()
        X = rng.normal(size=(16, 8))
        rewards = rng.integers(0, 2, size=16).astype(float)
        records = [ReplayRecord(x=X[i], reward=float(rewards[i]),
                                next_vectors=np.empty((0, 8))) for i in range(16)]
        cfg = AgentConfig(gamma=0.0, learning_rate=0.01)
        batch = batch_of(records)
        loss = np.inf
        for _ in range(10_000):
            loss = train_step(net, target, batch, cfg)
            if loss < 1e-3:
                break
        assert loss < 1e-3


class TestSyncTarget:
    def test_copy_semantics(self):
        rng = np.random.default_rng(9)
        online = QNetwork(6, rng=rng)
        target = QNetwork(6, rng=rng)
        X = rng.normal(size=(100, 6))
        assert not np.allclose(online.forward(X), target.forward(X))
        target = online.clone()
        assert np.array_equal(online.forward(X), target.forward(X))
        online.W1[0, 0] += 1.0  # later perturbation must not leak into the copy
        assert not np.array_equal(online.forward(X), target.forward(X))


class TestReplay:
    def test_capacity_fifo(self):
        buf = ReplayBuffer(capacity=3)
        for i in range(5):
            buf.add(ReplayRecord(x=np.array([float(i)]), reward=0.0,
                                 next_vectors=np.empty((0, 1))))
        assert len(buf) == 3
        kept = sorted(float(x[0]) for x in buf.gather(np.arange(len(buf))).x)
        assert kept == [2.0, 3.0, 4.0]

    def test_sampling_uniform_chi_square(self):
        buf = ReplayBuffer(capacity=10)
        for i in range(10):
            buf.add(ReplayRecord(x=np.array([float(i)]), reward=0.0,
                                 next_vectors=np.empty((0, 1))))
        rng = np.random.default_rng(10)
        counts = np.zeros(10)
        for x in buf.sample(rng, 100_000).x:
            counts[int(x[0])] += 1
        assert stats.chisquare(counts).pvalue > 0.001

    def test_seed_replay(self):
        buf = ReplayBuffer(capacity=10)
        vecs = [np.concatenate([np.zeros(3), np.ones(5) * i]) for i in range(3)]
        seed_replay(buf, vecs)
        assert len(buf) == 3
        net = zero_net(8, (3, 3))
        for record in records_of(buf.gather(np.arange(len(buf)))):
            assert record.reward == 1.0
            assert record.next_vectors.shape == (0, 8)
            assert ddqn_target(record, net, net, gamma=0.9) == 1.0

    def test_fifo_wraps_match_record_list(self):
        # Records of 0 to 300 follow-ups through many wraps of a 3-slot ring:
        # every slot gathers exactly what a list of records would hold there.
        rng = np.random.default_rng(11)
        buf = ReplayBuffer(capacity=3)
        ref, cursor = [], 0
        for step in range(60):
            k = int(rng.choice([0, 0, 1, 5, 40, 300]))
            record = ReplayRecord(x=rng.normal(size=4), reward=float(step),
                                  next_vectors=rng.normal(size=(k, 4)))
            buf.add(record)
            if len(ref) < 3:
                ref.append(record)
            else:
                ref[cursor] = record
                cursor = (cursor + 1) % 3
            assert len(buf) == len(ref)
            batch = buf.gather(np.arange(len(ref)))
            assert batch.sizes.tolist() == [r.next_vectors.shape[0] for r in ref]
            for got, want in zip(records_of(batch), ref):
                assert got.x.tobytes() == want.x.tobytes()
                assert got.reward == want.reward
                assert got.next_vectors.shape == want.next_vectors.shape
                assert got.next_vectors.tobytes() == want.next_vectors.tobytes()

    def test_repeated_rows_stored_once_in_first_order(self):
        rng = np.random.default_rng(21)
        pool = rng.normal(size=(4, 3))
        order = [2, 0, 2, 3, 0, 0, 2, 1, 3]
        buf = ReplayBuffer(capacity=4)
        buf.add(ReplayRecord(x=np.zeros(3), reward=1.0, next_vectors=pool[order]))
        batch = buf.gather([0])
        assert batch.sizes.tolist() == [4]
        assert batch.next_vectors.tobytes() == pool[[2, 0, 3, 1]].tobytes()

    def test_all_duplicate_record_keeps_one_row(self):
        row = np.arange(5.0)
        buf = ReplayBuffer(capacity=4)
        buf.add(ReplayRecord(x=np.zeros(5), reward=0.0, next_vectors=np.tile(row, (7, 1))))
        buf.add(ReplayRecord(x=np.zeros(5), reward=0.0, next_vectors=np.empty((0, 5))))
        buf.add(ReplayRecord(x=np.zeros(5), reward=0.0, next_vectors=row[None, :]))
        batch = buf.gather([0, 1, 2])
        assert batch.sizes.tolist() == [1, 0, 1]
        assert batch.next_vectors.tobytes() == np.stack([row, row]).tobytes()
        empty = records_of(buf.gather([1]))[0].next_vectors
        assert empty.shape == (0, 5)

    def test_rows_equal_only_byte_for_byte(self):
        # -0.0 == 0.0 and two NaNs compare alike as tuples of floats, but a
        # row is a repeat only when its bytes are.
        nan = np.float64(np.nan)
        other_nan = np.array([nan]).view(np.uint64)
        other_nan ^= 1
        other_nan = other_nan.view(np.float64)[0]
        assert np.isnan(other_nan) and other_nan.tobytes() != nan.tobytes()
        rows = np.array([[0.0, 1.0], [-0.0, 1.0], [nan, 1.0], [other_nan, 1.0],
                         [0.0, 1.0], [nan, 1.0], [1.0, -0.0], [1.0, 0.0]])
        buf = ReplayBuffer(capacity=2)
        buf.add(ReplayRecord(x=np.zeros(2), reward=0.0, next_vectors=rows))
        batch = buf.gather([0])
        assert batch.sizes.tolist() == [6]
        assert batch.next_vectors.tobytes() == rows[[0, 1, 2, 3, 6, 7]].tobytes()

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_targets_equal_those_of_the_distinct_rows(self, activation):
        rng = np.random.default_rng(22)
        online = QNetwork(6, hidden=(8, 4), activation=activation, rng=rng)
        target = QNetwork(6, hidden=(8, 4), activation=activation, rng=rng)
        records, distinct = [], []
        for _ in range(40):
            pool = rng.normal(size=(int(rng.integers(1, 5)), 6))
            picks = rng.integers(0, len(pool), size=int(rng.integers(0, 12)))
            firsts = list(dict.fromkeys(picks.tolist()))
            x, r = rng.normal(size=6), float(rng.integers(0, 2))
            records.append(ReplayRecord(x=x, reward=r, next_vectors=pool[picks]))
            distinct.append(ReplayRecord(x=x, reward=r, next_vectors=pool[firsts]))
        for raw, kept in zip(records, distinct):
            assert ddqn_target(raw, online, target, 0.9) == ddqn_target(kept, online, target, 0.9)
        # The batch of raw rows as it would be gathered without deduplication.
        raw_batch = ReplayBatch(x=np.stack([r.x for r in records]),
                                rewards=np.array([r.reward for r in records]),
                                next_vectors=np.concatenate([r.next_vectors for r in records]),
                                sizes=np.array([len(r.next_vectors) for r in records]))
        stored = batch_of(records)
        assert stored.next_vectors.tobytes() == batch_of(distinct).next_vectors.tobytes()
        assert stored.sizes.sum() < raw_batch.sizes.sum()
        assert np.array_equal(batch_targets(stored, online, target, 0.9),
                              batch_targets(raw_batch, online, target, 0.9))

    def test_fifo_wraps_with_duplicated_rows(self):
        # Through many wraps of a 3-slot ring, every slot gathers the distinct
        # rows, in first-occurrence order, of the record a list would hold.
        rng = np.random.default_rng(23)
        pool = rng.normal(size=(5, 4))
        buf = ReplayBuffer(capacity=3)
        ref, cursor = [], 0
        for step in range(40):
            picks = rng.integers(0, 5, size=int(rng.choice([0, 1, 3, 8, 30])))
            buf.add(ReplayRecord(x=rng.normal(size=4), reward=float(step),
                                 next_vectors=pool[picks]))
            want = pool[list(dict.fromkeys(picks.tolist()))].reshape(-1, 4)
            if len(ref) < 3:
                ref.append((float(step), want))
            else:
                ref[cursor] = (float(step), want)
                cursor = (cursor + 1) % 3
            batch = buf.gather(np.arange(len(ref)))
            assert batch.rewards.tolist() == [r for r, _ in ref]
            assert batch.sizes.tolist() == [len(w) for _, w in ref]
            assert batch.next_vectors.tobytes() == b"".join(w.tobytes() for _, w in ref)

    def test_add_keeps_its_own_copy(self):
        # In a crawl, x is a row view of one page's feature block and the
        # follow-ups are another page's block, which frontier entries view;
        # later writes to the caller's arrays must not reach the stored record.
        block = np.random.default_rng(13).normal(size=(6, 3))
        buf = ReplayBuffer(capacity=4)
        buf.add(ReplayRecord(x=block[0], reward=1.0, next_vectors=block[1:4]))
        before = buf.gather([0])
        assert before.next_vectors.tobytes() == block[1:4].tobytes()
        block[:] = -1.0
        after = buf.gather([0])
        for name in ("x", "rewards", "next_vectors", "sizes"):
            assert getattr(after, name).tobytes() == getattr(before, name).tobytes()

    def test_sample_draws_slots_like_integers(self):
        rng = np.random.default_rng(12)
        buf = ReplayBuffer(capacity=50)
        for i in range(30):
            buf.add(ReplayRecord(x=np.full(2, float(i)), reward=float(i),
                                 next_vectors=rng.normal(size=(i % 4, 2))))
        batch = buf.sample(np.random.default_rng(5), 32)
        slots = np.random.default_rng(5).integers(0, 30, size=32)
        expected = buf.gather(slots)
        for name in ("x", "rewards", "next_vectors", "sizes"):
            assert np.array_equal(getattr(batch, name), getattr(expected, name))
        assert batch.rewards.tolist() == slots.astype(float).tolist()
        with pytest.raises(IndexError):
            buf.gather([30])  # allocated but never filled

    def test_gather_rejects_negative_slots(self):
        # take() and list indexing would both wrap -1 to the newest slot.
        buf = ReplayBuffer(capacity=4)
        for i in range(3):
            buf.add(ReplayRecord(x=np.full(2, float(i)), reward=0.0,
                                 next_vectors=np.empty((0, 2))))
        for slots in ([-1], [0, -3]):
            with pytest.raises(IndexError):
                buf.gather(slots)

    def test_add_rejects_other_dimensions(self):
        buf = ReplayBuffer(capacity=4)
        buf.add(ReplayRecord(x=np.zeros(3), reward=0.0, next_vectors=np.empty((0, 3))))
        with pytest.raises(DimensionMismatchError):
            buf.add(ReplayRecord(x=np.zeros(1), reward=0.0, next_vectors=np.empty((0, 3))))
        with pytest.raises(DimensionMismatchError):
            buf.add(ReplayRecord(x=np.zeros(3), reward=0.0, next_vectors=np.zeros((2, 1))))
        assert len(buf) == 1

    def test_seed_replay_empty(self):
        buf = ReplayBuffer(capacity=10)
        seed_replay(buf, [])
        assert len(buf) == 0

    def test_seed_replay_rejects_nonzero_state(self):
        buf = ReplayBuffer(capacity=10)
        with pytest.raises(ValueError):
            seed_replay(buf, [np.ones(8)])


class TestAgentConfig:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            AgentConfig(gamma=1.5)
        with pytest.raises(ValueError):
            AgentConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            AgentConfig(batch_size=0)

    @pytest.mark.parametrize("field, value", [
        ("gamma", "0.9"), ("gamma", True), ("learning_rate", None),
        ("eps_start", "1"), ("eps_end", False),
        ("batch_size", "32"), ("batch_size", 32.0), ("batch_size", True),
        ("target_sync_every", 1.5), ("replay_capacity", "100"),
        ("next_action_cap", None), ("eps_decay_steps", "5"), ("eps_decay_steps", True),
        ("hidden", 5), ("hidden", "ab"), ("hidden", (64,)), ("hidden", (64, 0)),
        ("hidden", (64, 32.0)), ("hidden", (64, True)),
        ("activation", "sigmoid"), ("activation", None),
        # ranges of the exploration schedule
        ("eps_start", 3.0), ("eps_start", -0.1), ("eps_end", -1.0), ("eps_end", 1.5),
        ("eps_decay_steps", -5), ("eps_decay_steps", 0)])
    def test_field_types_checked(self, field, value):
        with pytest.raises(ValueError, match=f"agent.{field}"):
            AgentConfig(**{field: value})

    def test_ints_accepted_where_floats_belong(self):
        cfg = AgentConfig(gamma=1, learning_rate=1, eps_start=1, eps_end=0,
                          hidden=[8, 4], eps_decay_steps=10, activation="tanh")
        assert cfg.hidden == (8, 4) and cfg.gamma == 1

    def test_exploration_schedule_bounds_accepted(self):
        cfg = AgentConfig(eps_start=0, eps_end=1.0, eps_decay_steps=1)
        assert cfg.epsilon(0, 100) == 0.0 and cfg.epsilon(10, 100) == 1.0

    def test_epsilon_schedule_endpoints(self):
        cfg = AgentConfig(eps_start=1.0, eps_end=0.05)
        assert cfg.epsilon(0, 5000) == 1.0
        assert cfg.epsilon(1000, 5000) == pytest.approx(0.05)  # 20% of budget
        assert cfg.epsilon(4999, 5000) == pytest.approx(0.05)
