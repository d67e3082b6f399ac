"""Double-Q learning agent: a two-hidden-layer MLP value approximator with an
online and a target copy, experience replay, and plain gradient-descent steps.

The backward pass is written out explicitly so it can be validated against
finite differences.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass

import numpy as np


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
        # type(...) is int also refuses bools, which Python counts as ints.
        for name in ("gamma", "learning_rate", "eps_start", "eps_end"):
            value = getattr(self, name)
            if type(value) is not int and not isinstance(value, float):
                raise ValueError(f"agent.{name} must be a number")
        for name in ("batch_size", "target_sync_every", "replay_capacity",
                     "next_action_cap"):
            if type(getattr(self, name)) is not int:
                raise ValueError(f"agent.{name} must be an integer")
        decay = self.eps_decay_steps
        if decay is not None and (type(decay) is not int or decay < 1):
            raise ValueError("agent.eps_decay_steps must be a positive integer or null")
        if not (isinstance(self.hidden, (list, tuple)) and len(self.hidden) == 2
                and all(type(h) is int and h > 0 for h in self.hidden)):
            raise ValueError("agent.hidden must be two positive integers")
        if self.activation not in ("relu", "tanh"):
            raise ValueError("agent.activation must be 'relu' or 'tanh'")
        self.hidden = tuple(self.hidden)  # a list after a JSON round trip
        for name in ("gamma", "eps_start", "eps_end"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"agent.{name} must lie in [0, 1]")
        for name in ("learning_rate", "batch_size", "target_sync_every",
                     "replay_capacity", "next_action_cap"):
            if getattr(self, name) <= 0:
                raise ValueError(f"agent.{name} must be positive")

    def epsilon(self, step, budget):
        decay = max(1, int(0.2 * budget)) if self.eps_decay_steps is None else self.eps_decay_steps
        frac = min(1.0, step / decay)
        return self.eps_start + (self.eps_end - self.eps_start) * frac


def _activate(name, z):
    if name == "relu":
        return np.maximum(z, 0.0)
    if name == "tanh":
        return np.tanh(z)
    raise ValueError(f"unknown activation {name!r}")


def _activate_grad(name, z):
    if name == "relu":
        return (z > 0.0).astype(np.float64)
    if name == "tanh":
        t = np.tanh(z)
        return 1.0 - t * t
    raise ValueError(f"unknown activation {name!r}")


class QNetwork:
    """MLP with two hidden layers and a linear scalar output."""

    PARAM_NAMES = ("W1", "b1", "W2", "b2", "W3", "b3")

    def __init__(self, input_dim, hidden=(64, 32), activation="relu", rng=None):
        if rng is None:
            rng = np.random.default_rng()
        h1, h2 = hidden
        self.input_dim = int(input_dim)
        self.hidden = (int(h1), int(h2))
        self.activation = activation
        self.W1 = _xavier(rng, self.input_dim, h1)
        self.b1 = np.zeros(h1)
        self.W2 = _xavier(rng, h1, h2)
        self.b2 = np.zeros(h2)
        self.W3 = _xavier(rng, h2, 1)
        self.b3 = np.zeros(1)

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
        """(z1, a1, z2, a2, q) for a checked batch X."""
        z1 = X @ self.W1 + self.b1
        a1 = _activate(self.activation, z1)
        z2 = a1 @ self.W2 + self.b2
        a2 = _activate(self.activation, z2)
        return z1, a1, z2, a2, (a2 @ self.W3 + self.b3)[:, 0]

    def forward(self, x):
        """Q estimate; a single vector gives a float, a batch gives a 1-D array."""
        X, single = self._check_input(x)
        out = self._layers(X)[-1]
        return float(out[0]) if single else out

    def loss_and_gradients(self, x, targets):
        """Mean squared error against fixed targets, plus its parameter gradients."""
        X, _ = self._check_input(x)
        y = np.asarray(targets, dtype=np.float64).reshape(-1)
        if y.shape[0] != X.shape[0]:
            raise DimensionMismatchError("batch and target sizes differ")
        n = X.shape[0]
        z1, a1, z2, a2, q = self._layers(X)
        diff = q - y
        loss = float(np.mean(diff * diff))

        dq = (2.0 * diff / n)[:, None]
        grads = {}
        grads["W3"] = a2.T @ dq
        grads["b3"] = dq.sum(axis=0)
        da2 = dq @ self.W3.T
        dz2 = da2 * _activate_grad(self.activation, z2)
        grads["W2"] = a1.T @ dz2
        grads["b2"] = dz2.sum(axis=0)
        da1 = dz2 @ self.W2.T
        dz1 = da1 * _activate_grad(self.activation, z1)
        grads["W1"] = X.T @ dz1
        grads["b1"] = dz1.sum(axis=0)
        return loss, grads

    def apply_gradients(self, grads, learning_rate):
        for name in self.PARAM_NAMES:
            param = getattr(self, name)
            param -= learning_rate * grads[name]
            if not np.isfinite(param).all():
                raise TrainingDivergenceError(f"{name} became non-finite")

    def copy_from(self, other: "QNetwork"):
        for name in self.PARAM_NAMES:
            setattr(self, name, getattr(other, name).copy())
        self.activation = other.activation

    def clone(self) -> "QNetwork":
        return copy.deepcopy(self)


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
    """FIFO ring of replay records with uniform sampling, held in arrays.

    Slot i keeps its x in row i of one matrix, its reward in a vector, and its
    follow-up rows at next[start[i] : start[i] + size[i]] of one flat store
    that records are appended to. Rows of overwritten slots stay behind until
    they outnumber the live ones; the store is then compacted, so its used
    part never exceeds twice the live follow-up rows.
    """

    def __init__(self, capacity):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = int(capacity)
        self._n = 0
        self._cursor = 0
        self._x = None
        self._rewards = np.empty(0)
        self._start = np.empty(0, dtype=np.int64)
        self._size = np.empty(0, dtype=np.int64)
        self._next = None
        self._used = 0  # rows of self._next in use, live or stale
        self._live = 0  # rows that live slots point at

    def __len__(self):
        return self._n

    def add(self, record: ReplayRecord):
        x = np.asarray(record.x, dtype=np.float64)
        nxt = np.asarray(record.next_vectors, dtype=np.float64)
        d = x.size if self._x is None else self._x.shape[1]  # the first add fixes d
        # Row assignment would broadcast a length-1 vector; refuse it instead.
        if x.shape != (d,) or nxt.ndim != 2 or nxt.shape[1] != d:
            raise DimensionMismatchError(
                f"expected x of shape ({d},) and follow-ups of shape (k, {d}), "
                f"got {x.shape} and {nxt.shape}")
        if self._x is None:
            self._x = np.empty((0, d))
            self._next = np.empty((0, d))
        if self._n < self.capacity:
            slot = self._n
            self._n += 1
            if slot == self._x.shape[0]:
                grown = min(self.capacity, max(16, 2 * slot))
                self._x = _grow(self._x, grown)
                self._rewards = _grow(self._rewards, grown)
                self._start = _grow(self._start, grown)
                self._size = _grow(self._size, grown)
        else:
            slot = self._cursor
            self._cursor = (self._cursor + 1) % self.capacity
            self._live -= int(self._size[slot])
        k = nxt.shape[0]
        if self._used + k > self._next.shape[0]:
            self._next = _grow(self._next, max(16, 2 * (self._used + k)))
        self._next[self._used:self._used + k] = nxt
        self._x[slot] = x
        self._rewards[slot] = record.reward
        self._start[slot] = self._used
        self._size[slot] = k
        self._used += k
        self._live += k
        if self._used > 2 * self._live:
            self._compact()

    def _compact(self):
        """Move the live follow-up rows to the front of the store, slot by slot.
        Only an overwrite leaves stale rows, so every slot is live here."""
        starts, sizes = self._start[:self._n], self._size[:self._n]
        self._next[:self._live] = self._next[_segment_rows(starts, sizes)]
        starts[:] = np.cumsum(sizes) - sizes
        self._used = self._live

    def gather(self, slots) -> ReplayBatch:
        """The records in the given slots, in that order; slot i is the i-th
        record added, until the ring wraps."""
        # take() copies the same rows as fancy indexing, several times faster;
        # on the [:n] views it raises IndexError for a slot never filled.
        n = self._n
        slots = np.asarray(slots, dtype=np.int64)
        sizes = self._size[:n].take(slots)
        rows = _segment_rows(self._start[:n].take(slots), sizes)
        return ReplayBatch(x=self._x[:n].take(slots, axis=0), rewards=self._rewards[:n].take(slots),
                           next_vectors=self._next.take(rows, axis=0), sizes=sizes)

    def sample(self, rng, k) -> ReplayBatch:
        if not self._n:
            raise ValueError("cannot sample from an empty buffer")
        return self.gather(rng.integers(0, self._n, size=k))


def _grow(arr, rows):
    out = np.empty((rows,) + arr.shape[1:], dtype=arr.dtype)
    out[:arr.shape[0]] = arr
    return out


def _segment_rows(starts, sizes):
    """Concatenated row indices starts[i] .. starts[i] + sizes[i] - 1."""
    ends = np.cumsum(sizes)
    return np.repeat(starts - ends + sizes, sizes) + np.arange(ends[-1] if len(ends) else 0)


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


def batch_targets(batch: ReplayBatch, online: QNetwork, target: QNetwork,
                  gamma: float) -> np.ndarray:
    """Vectorized targets: one online pass over all follow-up vectors, one
    target pass over the per-record argmax rows."""
    ys = batch.rewards.copy()
    stacked = batch.next_vectors
    if stacked.shape[0] == 0:
        return ys
    sizes = batch.sizes
    online_q = online.forward(stacked)
    # Each record's values in its own row, padded with -inf; a boolean mask
    # fills the rows in order, and argmax takes the first maximum, as for each
    # record's segment alone.
    filled = np.arange(sizes.max()) < sizes[:, None]
    padded = np.full(filled.shape, -np.inf)
    padded[filled] = online_q
    has_next = sizes > 0
    chosen = (np.cumsum(sizes) - sizes + padded.argmax(axis=1))[has_next]
    ys[has_next] += gamma * target.forward(stacked.take(chosen, axis=0))
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


def sync_target(online: QNetwork, target: QNetwork):
    target.copy_from(online)
    return target


def save_checkpoint(net: QNetwork, path):
    record = {
        "layers": [net.input_dim, net.hidden[0], net.hidden[1], 1],
        "activation": net.activation,
    }
    for name in QNetwork.PARAM_NAMES:
        arr = getattr(net, name)
        record[name] = {"shape": list(arr.shape), "data": arr.reshape(-1).tolist()}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
        fh.write("\n")


def load_checkpoint(path) -> QNetwork:
    with open(path, encoding="utf-8") as fh:
        record = json.load(fh)
    layers = record["layers"]
    net = QNetwork(layers[0], hidden=(layers[1], layers[2]),
                   activation=record["activation"], rng=np.random.default_rng(0))
    for name in QNetwork.PARAM_NAMES:
        spec = record[name]
        setattr(net, name, np.array(spec["data"], dtype=np.float64).reshape(spec["shape"]))
    return net
