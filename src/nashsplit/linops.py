"""Linear operators with exact adjoints.

Dense matrices are the canonical representation at desk scale; the
structured forms (identity, scaled identity, zero, horizontal stack,
composition) exist to keep example games readable. Operators are
immutable and safe to share across threads. Operator norms are never
needed by the solver and are not computed here.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "DimensionError",
    "LinOp",
    "Dense",
    "Identity",
    "ScaledIdentity",
    "Zero",
    "HStack",
    "Compose",
]


class DimensionError(ValueError):
    """A vector does not match an operator's declared dimension."""


def _as_vector(x, dim: int, what: str) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1 or arr.shape[0] != dim:
        raise DimensionError(f"{what}: expected a vector of dimension {dim}, got shape {arr.shape}")
    return arr


class LinOp:
    """A bounded linear map between finite-dimensional real spaces."""

    in_dim: int
    out_dim: int

    def apply(self, x) -> np.ndarray:
        """Return the image of ``x`` under the operator."""
        raise NotImplementedError

    def adjoint_apply(self, y) -> np.ndarray:
        """Return the image of ``y`` under the adjoint operator."""
        raise NotImplementedError

    def matrix(self) -> np.ndarray:
        """Dense matrix representation, assembled column by column."""
        out = np.zeros((self.out_dim, self.in_dim))
        for j in range(self.in_dim):
            e = np.zeros(self.in_dim)
            e[j] = 1.0
            out[:, j] = self.apply(e)
        return out

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.in_dim}->{self.out_dim})"


class Dense(LinOp):
    """Operator given by an explicit matrix."""

    def __init__(self, a):
        a = np.asarray(a, dtype=float)
        if a.ndim != 2:
            raise DimensionError(f"Dense expects a 2-D matrix, got shape {a.shape}")
        self._a = a.copy()
        self._a.flags.writeable = False
        self.out_dim, self.in_dim = a.shape

    def apply(self, x):
        return self._a @ _as_vector(x, self.in_dim, "Dense.apply")

    def adjoint_apply(self, y):
        return self._a.T @ _as_vector(y, self.out_dim, "Dense.adjoint_apply")

    def matrix(self):
        return np.array(self._a)


class Identity(LinOp):
    """Identity map on a space of a given dimension."""

    def __init__(self, dim: int):
        if dim < 1:
            raise DimensionError("Identity dimension must be positive")
        self.in_dim = self.out_dim = int(dim)

    def apply(self, x):
        return _as_vector(x, self.in_dim, "Identity.apply")

    def adjoint_apply(self, y):
        return _as_vector(y, self.out_dim, "Identity.adjoint_apply")


class ScaledIdentity(LinOp):
    """Scalar multiple of the identity."""

    def __init__(self, dim: int, scale: float):
        if dim < 1:
            raise DimensionError("ScaledIdentity dimension must be positive")
        self.in_dim = self.out_dim = int(dim)
        self.scale = float(scale)

    def apply(self, x):
        return self.scale * _as_vector(x, self.in_dim, "ScaledIdentity.apply")

    def adjoint_apply(self, y):
        return self.scale * _as_vector(y, self.out_dim, "ScaledIdentity.adjoint_apply")


class Zero(LinOp):
    """The zero map between spaces of the given dimensions."""

    def __init__(self, in_dim: int, out_dim: int):
        if in_dim < 1 or out_dim < 1:
            raise DimensionError("Zero dimensions must be positive")
        self.in_dim = int(in_dim)
        self.out_dim = int(out_dim)

    def apply(self, x):
        _as_vector(x, self.in_dim, "Zero.apply")
        return np.zeros(self.out_dim)

    def adjoint_apply(self, y):
        _as_vector(y, self.out_dim, "Zero.adjoint_apply")
        return np.zeros(self.in_dim)


class HStack(LinOp):
    """Row block [A1 A2 ...] acting on a stacked input vector.

    The adjoint maps an output vector to the stacked adjoint images.
    """

    def __init__(self, ops):
        ops = tuple(ops)
        if not ops:
            raise DimensionError("HStack needs at least one operator")
        out = ops[0].out_dim
        for op in ops:
            if op.out_dim != out:
                raise DimensionError("HStack blocks must share the output dimension")
        self.ops = ops
        self.in_dim = sum(op.in_dim for op in ops)
        self.out_dim = out

    def apply(self, x):
        x = _as_vector(x, self.in_dim, "HStack.apply")
        acc, start = np.zeros(self.out_dim), 0
        for op in self.ops:
            acc = acc + op.apply(x[start:start + op.in_dim])
            start += op.in_dim
        return acc

    def adjoint_apply(self, y):
        y = _as_vector(y, self.out_dim, "HStack.adjoint_apply")
        return np.concatenate([op.adjoint_apply(y) for op in self.ops])


class Compose(LinOp):
    """Composition ``outer @ inner`` (apply inner first)."""

    def __init__(self, outer: LinOp, inner: LinOp):
        if outer.in_dim != inner.out_dim:
            raise DimensionError(
                f"cannot compose {outer.out_dim}x{outer.in_dim} with {inner.out_dim}x{inner.in_dim}"
            )
        self.outer = outer
        self.inner = inner
        self.in_dim = inner.in_dim
        self.out_dim = outer.out_dim

    def apply(self, x):
        return self.outer.apply(self.inner.apply(x))

    def adjoint_apply(self, y):
        return self.inner.adjoint_apply(self.outer.adjoint_apply(y))
