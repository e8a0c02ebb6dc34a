"""State-space view of the assembled model.

Delays are replaced by Pade sections of configurable order so the closed
loop becomes a single LTI system.  The default order is fine for stability
screening near the body resonances; raise it when evaluating frequency
responses up to w*delay of a few radians.  The loop's terms come from the
model's ``closed_loop``, as the step map's do, so both read the same
numbers; here only a channel of delay exactly 0 is folded in.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

import numpy as np
import scipy.signal as sps

DEFAULT_PADE_ORDER = 2


def _pade_coefficients(delay_s: float, order: int) -> tuple:
    """Numerator and denominator of the (order, order) Pade of exp(-s*delay)."""
    r = order
    num = np.zeros(r + 1)
    den = np.zeros(r + 1)
    for k in range(r + 1):
        c = factorial(2 * r - k) * factorial(r) / (
            factorial(2 * r) * factorial(k) * factorial(r - k))
        num[r - k] = c * (-delay_s) ** k
        den[r - k] = c * delay_s ** k
    return num, den


def _pade_block(delay_s: float, order: int, width: int) -> tuple:
    """State-space Pade block replicated across ``width`` parallel components.

    Realized for a unit delay and time-scaled afterwards; building the
    companion form directly from tau^k coefficients loses all precision for
    short delays at high order.
    """
    num, den = _pade_coefficients(1.0, order)
    A1, B1, C1, D1 = sps.tf2ss(num, den)
    A1 = A1 / delay_s
    B1 = B1 / delay_s
    eye = np.eye(width)
    A = np.kron(eye, A1)
    B = np.kron(eye, B1)
    C = np.kron(eye, C1)
    D = np.kron(eye, D1)
    return A, B, C, D


@dataclass(frozen=True)
class LinearizedModel:
    """Closed-loop LTI realization: x = [dq, dqd, delay states].

    Input is seat acceleration (x, y, z); outputs follow the realization's
    output map (accelerations, rotational velocities, angle deviations --
    static offsets are dropped here).
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    coords: tuple
    output_names: tuple
    output_units: tuple
    pade_order: int

    @property
    def n_states(self) -> int:
        return self.A.shape[0]

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvals(self.A)

    def output_index(self, name: str) -> int:
        return self.output_names.index(name)

    def frequency_response(self, freqs_hz, input_axis: str = "z",
                           output_names=None) -> np.ndarray:
        """Complex response of the named outputs to unit seat acceleration.

        Returns an array shaped (n_outputs, n_freqs).
        """
        axis = "xyz".index(input_axis)
        rows = ([self.output_index(nm) for nm in output_names]
                if output_names is not None else range(len(self.output_names)))
        rows = np.asarray(list(rows))
        freqs_hz = np.asarray(freqs_hz, dtype=float)
        b_col = self.B[:, axis]
        out = np.empty((len(rows), freqs_hz.size), dtype=complex)
        eye = np.eye(self.n_states)
        for j, f in enumerate(freqs_hz):
            x = np.linalg.solve(1j * 2.0 * np.pi * f * eye - self.A, b_col)
            out[:, j] = self.C[rows] @ x + self.D[rows, axis]
        return out


def _assemble(model, pade_order: int) -> tuple:
    """The closed loop's state matrix A and seat-input matrix B."""
    n = model.n
    A2, A1, Bi, delayed = model.closed_loop(lambda ch: ch.delay_s == 0.0)
    blocks = [(_pade_block(ch.delay_s, pade_order, len(S_z)), S_z, T)
              for ch, S_z, T in delayed]
    nx = 2 * n + sum(Ad.shape[0] for (Ad, _, _, _), _, _ in blocks)
    A = np.zeros((nx, nx))
    A[:n, n:2 * n] = np.eye(n)
    A[n:2 * n, :2 * n] = np.hstack([A2, A1])

    pos = 2 * n
    for (Ad, Bd, Cd, Dd), S_z, T in blocks:
        sz = Ad.shape[0]
        A[pos:pos + sz, pos:pos + sz] = Ad
        A[pos:pos + sz, :2 * n] = Bd @ S_z
        A[n:2 * n, pos:pos + sz] += T @ Cd
        A[n:2 * n, :2 * n] += T @ Dd @ S_z  # Pade feedthrough
        pos += sz

    B = np.zeros((nx, 3))
    B[n:2 * n, :] = Bi
    return A, B


def linearize(model, pade_order: int = DEFAULT_PADE_ORDER) -> LinearizedModel:
    """Closed-loop state-space model with Pade-approximated delays."""
    if pade_order < 1:
        raise ValueError("pade_order must be >= 1")
    A, B = _assemble(model, pade_order)
    n = model.n
    nx = A.shape[0]
    out = model.outputs

    # qdd is a linear read-out of the state equation's velocity rows.
    acc_rows_A = A[n:2 * n, :]
    acc_rows_B = B[n:2 * n, :]
    C = np.zeros((len(out.names), nx))
    C[:, :n] = out.Yq
    C[:, n:2 * n] = out.Yqd
    C += out.Yqdd @ acc_rows_A
    D = out.Yin + out.Yqdd @ acc_rows_B

    return LinearizedModel(A=A, B=B, C=C, D=D, coords=model.coords,
                           output_names=out.names, output_units=out.units,
                           pade_order=pade_order)


def closed_loop_eigenvalues(model, pade_order: int = DEFAULT_PADE_ORDER,
                            with_vectors: bool = False):
    """Eigenvalues of the delay-approximated closed loop (build-time check)."""
    A, _ = _assemble(model, pade_order)
    if with_vectors:
        return np.linalg.eig(A)
    return np.linalg.eigvals(A)
