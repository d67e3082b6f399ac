"""Double-Q learning agent: a two-hidden-layer MLP value approximator with an
online and a target copy, experience replay, and plain gradient-descent steps.

The backward pass is written out explicitly so it can be validated against
finite differences.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from .checks import check_fields, is_kind


class DimensionMismatchError(ValueError):
    pass


class TrainingDivergenceError(RuntimeError):
    """Loss or parameters became non-finite; usually a learning-rate problem."""


@dataclass
class AgentConfig:
    gamma: float = 0.9
    learning_rate: float = 1e-3
    batch_size: int = 32
    target_sync_every: int = 100
    eps_start: float = 1.0
    eps_end: float = 0.05
    eps_decay_steps: int | None = None  # defaults to 20% of the crawl budget
    hidden: tuple = (64, 32)
    activation: str = "relu"
    replay_capacity: int = 50_000
    next_action_cap: int = 256

    def __post_init__(self):
        check_fields(self, ValueError, "agent.", eps_decay_steps=int, hidden=None)
        if not (isinstance(self.hidden, (list, tuple)) and len(self.hidden) == 2
                and all(is_kind(h, int) and h > 0 for h in self.hidden)):
            raise ValueError("agent.hidden must be two positive integers")
        self.hidden = tuple(self.hidden)  # a list after a JSON round trip
        if self.activation not in _ACTIVATIONS:
            raise ValueError(f"agent.activation must be one of {', '.join(_ACTIVATIONS)}")
        for name in ("gamma", "eps_start", "eps_end"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"agent.{name} must lie in [0, 1]")
        for name in ("learning_rate", "batch_size", "target_sync_every",
                     "replay_capacity", "next_action_cap", "eps_decay_steps"):
            value = getattr(self, name)
            if value is not None and value <= 0:  # None: decay over 20% of the budget
                raise ValueError(f"agent.{name} must be positive")

    def epsilon(self, step, budget):
        decay = max(1, int(0.2 * budget)) if self.eps_decay_steps is None else self.eps_decay_steps
        frac = min(1.0, step / decay)
        return self.eps_start + (self.eps_end - self.eps_start) * frac


# Per activation: one that overwrites its argument with its output, and one
# that multiplies da in place by the derivative at output a.
_ACTIVATIONS = {
    "relu": (lambda a: np.maximum(a, 0.0, out=a),
             lambda da, a: np.multiply(da, a > 0.0, out=da)),
    "tanh": (lambda a: np.tanh(a, out=a),
             lambda da, a: np.multiply(da, 1.0 - a * a, out=da)),
}


class ParamViews(dict):
    """Views, by name in QNetwork.PARAM_NAMES order, of consecutive slices of
    one flat float64 buffer, `flat`."""

    def __init__(self, flat, shapes):
        super().__init__()
        self.flat = flat
        start = 0
        for name, shape in zip(QNetwork.PARAM_NAMES, shapes):
            size = math.prod(shape)
            self[name] = flat[start:start + size].reshape(shape)
            start += size


class QNetwork:
    """MLP with two hidden layers and a linear scalar output.

    W1..b3 are views of one flat parameter buffer, `params.flat`, so a
    descent step and its finiteness check are one operation each. Rebinding
    an attribute (net.W1 = ...) would detach it; write into it instead.
    """

    PARAM_NAMES = ("W1", "b1", "W2", "b2", "W3", "b3")

    def __init__(self, input_dim, hidden=(64, 32), activation="relu", rng=None):
        if activation not in _ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}; expected 'relu' or 'tanh'")
        if rng is None:
            rng = np.random.default_rng()
        h1, h2 = (int(h) for h in hidden)
        self.input_dim = d = int(input_dim)
        self.hidden = (h1, h2)
        self.activation = activation
        self._act, self._act_grad = _ACTIVATIONS[activation]
        self._shapes = ((d, h1), (h1,), (h1, h2), (h2,), (h2, 1), (1,))
        self._bind(np.zeros(sum(math.prod(shape) for shape in self._shapes)))
        self.W1[:] = _xavier(rng, d, h1)
        self.W2[:] = _xavier(rng, h1, h2)
        self.W3[:] = _xavier(rng, h2, 1)

    def _bind(self, flat):
        """Make W1..b3 views of flat, and give the network its own gradient buffer."""
        self.params = ParamViews(flat, self._shapes)
        self.__dict__.update(self.params)
        self._grads = ParamViews(np.zeros_like(flat), self._shapes)

    def _check_input(self, x):
        x = np.asarray(x, dtype=np.float64)
        single = x.ndim == 1
        if single:
            x = x[None, :]
        if x.ndim != 2 or x.shape[1] != self.input_dim:
            raise DimensionMismatchError(
                f"expected input dimension {self.input_dim}, got shape {x.shape}")
        return x, single

    def _layers(self, X):
        """Activations (a1, a2) and values q for a checked batch X; each layer
        is one product, then bias and activation in place."""
        a1 = X @ self.W1
        a1 += self.b1
        self._act(a1)
        a2 = a1 @ self.W2
        a2 += self.b2
        self._act(a2)
        q = a2 @ self.W3
        q += self.b3
        return a1, a2, q[:, 0]

    def forward(self, x):
        """Q estimate; a single vector gives a float, a batch gives a 1-D array."""
        X, single = self._check_input(x)
        out = self._layers(X)[-1]
        return float(out[0]) if single else out

    def loss_and_gradients(self, x, targets):
        """Mean squared error against fixed targets, plus its parameter
        gradients: views of the network's gradient buffer, by parameter name,
        valid until the next call."""
        X, _ = self._check_input(x)
        y = np.asarray(targets, dtype=np.float64).reshape(-1)
        if y.shape[0] != X.shape[0]:
            raise DimensionMismatchError("batch and target sizes differ")
        n = X.shape[0]
        a1, a2, q = self._layers(X)
        diff = np.subtract(q, y, out=q)
        loss = float((diff * diff).sum() / n)

        grads = self._grads
        dq = (2.0 * diff / n)[:, None]
        np.matmul(a2.T, dq, out=grads["W3"])
        dq.sum(axis=0, out=grads["b3"])
        dz2 = self._act_grad(dq @ self.W3.T, a2)
        np.matmul(a1.T, dz2, out=grads["W2"])
        dz2.sum(axis=0, out=grads["b2"])
        dz1 = self._act_grad(dz2 @ self.W2.T, a1)
        np.matmul(X.T, dz1, out=grads["W1"])
        dz1.sum(axis=0, out=grads["b1"])
        return loss, grads

    def apply_gradients(self, grads: ParamViews, learning_rate):
        """One descent step with gradients as loss_and_gradients returns them,
        from this network or one of the same shape."""
        flat = self.params.flat
        flat -= learning_rate * grads.flat
        if not np.isfinite(flat).all():
            name = next(name for name, view in self.params.items()
                        if not np.isfinite(view).all())
            raise TrainingDivergenceError(f"{name} became non-finite")

    def clone(self) -> "QNetwork":
        """An independent copy: its own parameter and gradient buffers."""
        twin = copy.copy(self)
        twin._bind(self.params.flat.copy())
        return twin


def _xavier(rng, fan_in, fan_out):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


@dataclass
class ReplayRecord:
    x: np.ndarray
    reward: float
    next_vectors: np.ndarray  # (k, d); k may be 0 when no follow-up actions exist


@dataclass
class ReplayBatch:
    """Replay records gathered as arrays: row i of `x` and `rewards` is record
    i, and its sizes[i] follow-up rows come next in `next_vectors`, after those
    of records 0..i-1."""

    x: np.ndarray             # (b, d)
    rewards: np.ndarray       # (b,)
    next_vectors: np.ndarray  # (sizes.sum(), d)
    sizes: np.ndarray         # (b,) int


class ReplayBuffer:
    """FIFO ring of replay records with uniform sampling.

    Slot i keeps its x in row i of one matrix, its reward in a vector and its
    distinct follow-up rows as item i of a list of (k, d) arrays. Once the
    ring is full, each add overwrites the oldest slot.

    A follow-up row that repeats an earlier row of its record byte for byte
    is stored once: it can neither raise the record's maximum nor come
    before its first copy, so the double-Q target picks a row with the same
    features. A page's outlinks share its state columns, so about half the
    rows of a crawl's records are such repeats.
    """

    def __init__(self, capacity):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = int(capacity)
        self._cursor = 0
        self._x = np.empty((0, 0))
        self._rewards = np.empty(0)
        self._next = []

    def __len__(self):
        return len(self._next)

    def add(self, record: ReplayRecord):
        x = np.asarray(record.x, dtype=np.float64)
        nxt = np.array(record.next_vectors, dtype=np.float64)  # our own copy
        d = self._x.shape[1] if self._next else x.size  # the first add fixes d
        # Row assignment would broadcast a length-1 vector; refuse it instead.
        if x.shape != (d,) or nxt.ndim != 2 or nxt.shape[1] != d:
            raise DimensionMismatchError(
                f"expected x of shape ({d},) and follow-ups of shape (k, {d}), "
                f"got {x.shape} and {nxt.shape}")
        if not self._next:
            self._x = np.empty((0, d))
        nxt = _distinct_rows(nxt)
        slot = len(self._next)
        if slot < self.capacity:
            self._next.append(nxt)
            if slot == self._x.shape[0]:
                grown = min(self.capacity, max(16, 2 * slot))
                self._x = _grow(self._x, grown)
                self._rewards = _grow(self._rewards, grown)
        else:
            slot = self._cursor
            self._cursor = (slot + 1) % self.capacity
            self._next[slot] = nxt
        self._x[slot] = x
        self._rewards[slot] = record.reward

    def gather(self, slots) -> ReplayBatch:
        """The records in the given slots, in that order; slot i is the i-th
        record added, until the ring wraps."""
        n = len(self._next)
        slots = np.asarray(slots, dtype=np.int64)
        idx = slots.tolist()
        if idx and min(idx) < 0:  # list indexing and take() would wrap it
            raise IndexError(f"negative replay slot {min(idx)}")
        nexts = [self._next[i] for i in idx]  # IndexError for a slot never filled
        # take() copies the same rows as fancy indexing, several times faster.
        return ReplayBatch(x=self._x[:n].take(slots, axis=0), rewards=self._rewards[:n].take(slots),
                           next_vectors=np.concatenate(nexts) if nexts else self._x[:0],
                           sizes=np.fromiter(map(len, nexts), np.int64, len(nexts)))

    def sample(self, rng, k) -> ReplayBatch:
        if not self._next:
            raise ValueError("cannot sample from an empty buffer")
        return self.gather(rng.integers(0, len(self._next), size=k))


def _distinct_rows(rows):
    """The (k, d) float64 rows without those whose bytes repeat an earlier
    row, in order of first occurrence; -0.0 and 0.0, or two NaN payloads,
    stay apart."""
    k, d = rows.shape
    if k < 2 or d == 0:  # nothing to drop, or no bytes to view
        return rows
    # Each row as one bytes object: a void item of its 8 * d bytes.
    as_bytes = np.ascontiguousarray(rows).view(np.dtype((np.void, 8 * d)))[:, 0]
    keys = dict.fromkeys(as_bytes.tolist())
    if len(keys) == k:
        return rows
    return np.frombuffer(b"".join(keys), dtype=np.float64).reshape(len(keys), d)


def _grow(arr, rows):
    out = np.empty((rows,) + arr.shape[1:], dtype=arr.dtype)
    out[:arr.shape[0]] = arr
    return out


def seed_replay(buffer: ReplayBuffer, seed_vectors):
    """Bootstrap the buffer with one unit-reward record per seed vector."""
    for x in seed_vectors:
        x = np.asarray(x, dtype=np.float64)
        if not np.all(x[:3] == 0.0):
            raise ValueError("seed vectors must carry zero state features")
        buffer.add(ReplayRecord(x=x, reward=1.0,
                                next_vectors=np.empty((0, x.shape[0]))))
    return buffer


def ddqn_target(record: ReplayRecord, online: QNetwork, target: QNetwork, gamma: float) -> float:
    """r plus gamma times the target net's value of the online net's argmax follow-up."""
    nxt = record.next_vectors
    if nxt.shape[0] == 0:
        return float(record.reward)
    online_q = online.forward(nxt)
    best = int(np.argmax(online_q))
    return float(record.reward) + gamma * float(target.forward(nxt[best]))


def segment_argmax(values, sizes):
    """For each segment with sizes[i] > 0 (segment i holds the next sizes[i]
    values), the index into values that np.argmax over that segment alone
    picks: its first maximum, or its first NaN."""
    sizes = sizes[sizes > 0]
    starts = sizes.cumsum() - sizes
    hit = values == np.maximum.reduceat(values, starts).repeat(sizes)
    hit |= np.isnan(values)  # a NaN is its segment's maximum, as for argmax
    hits = hit.nonzero()[0]
    return hits[hits.searchsorted(starts)]


def batch_targets(batch: ReplayBatch, online: QNetwork, target: QNetwork,
                  gamma: float) -> np.ndarray:
    """Vectorized targets: one online pass over all follow-up vectors, one
    target pass over the per-record argmax rows."""
    ys = batch.rewards.copy()
    stacked = batch.next_vectors
    if stacked.shape[0] == 0:
        return ys
    chosen = segment_argmax(online.forward(stacked), batch.sizes)
    ys[batch.sizes > 0] += gamma * target.forward(stacked.take(chosen, axis=0))
    return ys


def train_step(online: QNetwork, target: QNetwork, batch: ReplayBatch, cfg: AgentConfig) -> float:
    """One descent step on the squared error against fixed double-Q targets.

    Returns the pre-step loss.
    """
    if batch.x.shape[0] == 0:
        raise ValueError("batch must be non-empty")
    targets = batch_targets(batch, online, target, cfg.gamma)
    loss, grads = online.loss_and_gradients(batch.x, targets)
    if not np.isfinite(loss):
        raise TrainingDivergenceError(f"non-finite loss {loss}")
    online.apply_gradients(grads, cfg.learning_rate)
    return loss

