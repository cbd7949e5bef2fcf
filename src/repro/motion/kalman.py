"""Linear Kalman filter.

Section V-B of the paper uses a Kalman filter to predict future client
positions and to obtain the error covariance that turns point
predictions into a probability distribution over grid blocks
(eq. 3: ``P(s_t) ~ N(s_hat_t, P_t)``).

:class:`KalmanFilter` is the textbook linear-Gaussian filter;
:class:`ConstantVelocityModel2D` builds the standard 2-D
constant-velocity instantiation used by the buffer manager.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import PredictionError

__all__ = ["KalmanFilter", "ConstantVelocityModel2D", "Gaussian"]


@dataclass(frozen=True)
class Gaussian:
    """A multivariate normal ``N(mean, cov)``."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self) -> None:
        mean = np.asarray(self.mean, dtype=float)
        cov = np.asarray(self.cov, dtype=float)
        if mean.ndim != 1:
            raise PredictionError(f"mean must be a vector, got shape {mean.shape}")
        if cov.shape != (mean.shape[0], mean.shape[0]):
            raise PredictionError(
                f"cov shape {cov.shape} does not match mean dimension {mean.shape[0]}"
            )
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    def marginal(self, indices: list[int]) -> "Gaussian":
        """The marginal distribution over a subset of components."""
        idx = np.asarray(indices, dtype=int)
        return Gaussian(self.mean[idx], self.cov[np.ix_(idx, idx)])

    def log_pdf_many(self, points: np.ndarray) -> np.ndarray:
        """Log-density at every row of an ``(n, d)`` point array.

        One Cholesky factorisation ``cov = L L^T`` serves all ``n``
        points; ``L z = diff`` is solved by forward substitution written
        as elementwise array arithmetic, so row ``i`` of the result does
        not depend on ``n`` -- the scalar :meth:`log_pdf` is the ``n = 1``
        case, bit for bit.  (A LAPACK solve against the ``(d, n)``
        right-hand side picks different kernels for different ``n``.)

        Working with ``L`` keeps tight covariances exact where a fixed
        up-front jitter would *dominate* a covariance of scale ``1e-12``
        and bias the density by orders of magnitude; jitter is escalated
        only when the factorisation actually fails (see
        :meth:`_cholesky`).
        """
        points = np.asarray(points, dtype=float)
        d = self.mean.shape[0]
        if points.ndim != 2 or points.shape[1] != d:
            raise PredictionError(
                f"expected an (n, {d}) point array, got shape {points.shape}"
            )
        diff = points - self.mean
        chol = self._cholesky()
        # diff = L z  =>  diff^T cov^-1 diff = ||z||^2
        z: list[np.ndarray] = []
        maha = np.zeros(points.shape[0])
        for i in range(d):
            acc = diff[:, i]
            for j in range(i):
                acc = acc - chol[i, j] * z[j]
            z.append(acc / chol[i, i])
            maha += z[i] * z[i]
        logdet = 2.0 * float(np.sum(np.log(np.diag(chol))))
        return -0.5 * (d * np.log(2.0 * np.pi) + logdet + maha)

    def pdf_many(self, points: np.ndarray) -> np.ndarray:
        """Density at every row of ``points`` (``exp`` of :meth:`log_pdf_many`)."""
        return np.exp(self.log_pdf_many(points))

    def log_pdf(self, x: np.ndarray) -> float:
        """Log-density at one point ``x``."""
        return float(self.log_pdf_many(np.asarray(x, dtype=float)[None, :])[0])

    def pdf(self, x: np.ndarray) -> float:
        """Density at ``x`` (``exp`` of :meth:`log_pdf`)."""
        return float(np.exp(self.log_pdf(x)))

    def _cholesky(self) -> np.ndarray:
        """Lower-triangular factor, escalating jitter only on failure."""
        try:
            return np.linalg.cholesky(self.cov)
        except np.linalg.LinAlgError:
            pass
        d = self.mean.shape[0]
        # Scale-aware jitter: relative to the largest variance so the
        # regularisation never swamps a uniformly tiny covariance.
        scale = float(np.max(np.abs(np.diag(self.cov)))) or 1.0
        for magnitude in (1e-12, 1e-9, 1e-6):
            try:
                return np.linalg.cholesky(self.cov + np.eye(d) * scale * magnitude)
            except np.linalg.LinAlgError:
                continue
        raise PredictionError("singular covariance in pdf")


class KalmanFilter:
    """A linear-Gaussian state estimator.

    Parameters
    ----------
    transition:
        State transition matrix ``A`` (n x n).
    observation:
        Observation matrix ``H`` (m x n).
    process_noise:
        Process noise covariance ``Q`` (n x n).
    observation_noise:
        Measurement noise covariance ``R`` (m x m).
    initial_state, initial_cov:
        Prior ``N(x0, P0)``.
    """

    def __init__(
        self,
        transition: np.ndarray,
        observation: np.ndarray,
        process_noise: np.ndarray,
        observation_noise: np.ndarray,
        initial_state: np.ndarray,
        initial_cov: np.ndarray,
    ):
        self.A = np.asarray(transition, dtype=float)
        self.H = np.asarray(observation, dtype=float)
        self.Q = np.asarray(process_noise, dtype=float)
        self.R = np.asarray(observation_noise, dtype=float)
        n = self.A.shape[0]
        m = self.H.shape[0]
        if self.A.shape != (n, n):
            raise PredictionError(f"transition must be square, got {self.A.shape}")
        if self.H.shape != (m, n):
            raise PredictionError(
                f"observation shape {self.H.shape} incompatible with state dim {n}"
            )
        if self.Q.shape != (n, n) or self.R.shape != (m, m):
            raise PredictionError("noise covariance shapes do not match model")
        self.x = np.asarray(initial_state, dtype=float).copy()
        self.P = np.asarray(initial_cov, dtype=float).copy()
        if self.x.shape != (n,) or self.P.shape != (n, n):
            raise PredictionError("initial state/cov shapes do not match model")

    @property
    def state_dim(self) -> int:
        return self.A.shape[0]

    def predict(self) -> Gaussian:
        """Time update: advance the state estimate one step."""
        self.x = self.A @ self.x
        self.P = self.A @ self.P @ self.A.T + self.Q
        return Gaussian(self.x.copy(), self.P.copy())

    def update(self, measurement: np.ndarray) -> Gaussian:
        """Measurement update with one observation."""
        z = np.asarray(measurement, dtype=float)
        if z.shape != (self.H.shape[0],):
            raise PredictionError(
                f"measurement shape {z.shape} does not match observation dim"
            )
        innovation = z - self.H @ self.x
        s = self.H @ self.P @ self.H.T + self.R
        try:
            gain = self.P @ self.H.T @ np.linalg.inv(s)
        except np.linalg.LinAlgError as exc:
            raise PredictionError("singular innovation covariance") from exc
        self.x = self.x + gain @ innovation
        identity = np.eye(self.state_dim)
        self.P = (identity - gain @ self.H) @ self.P
        return Gaussian(self.x.copy(), self.P.copy())

    def step(self, measurement: np.ndarray) -> Gaussian:
        """predict() followed by update() -- one filtering iteration."""
        self.predict()
        return self.update(measurement)

    def forecast(self, steps: int) -> list[Gaussian]:
        """Multi-step prediction *without* mutating the filter state.

        Implements the paper's ``s_{t+i} = A^i s_t`` with covariance
        ``P_{t+i} = A P A^T + Q`` iterated, so uncertainty grows with
        the horizon -- the property the buffer manager exploits to
        discount far-future blocks.
        """
        if steps < 1:
            raise PredictionError(f"forecast needs steps >= 1, got {steps}")
        x = self.x.copy()
        p = self.P.copy()
        out: list[Gaussian] = []
        for _ in range(steps):
            x = self.A @ x
            p = self.A @ p @ self.A.T + self.Q
            out.append(Gaussian(x.copy(), p.copy()))
        return out


class ConstantVelocityModel2D:
    """Factory for the standard 2-D constant-velocity Kalman filter.

    State is ``[x, y, vx, vy]``; observations are positions.
    """

    def __init__(
        self,
        dt: float = 1.0,
        *,
        process_noise: float = 0.5,
        measurement_noise: float = 0.5,
        initial_position: np.ndarray | None = None,
        initial_uncertainty: float = 100.0,
    ):
        if dt <= 0:
            raise PredictionError(f"dt must be positive, got {dt}")
        if process_noise <= 0 or measurement_noise <= 0:
            raise PredictionError("noise magnitudes must be positive")
        self.dt = dt
        self.process_noise = process_noise
        self.measurement_noise = measurement_noise
        self.initial_position = (
            np.zeros(2) if initial_position is None else np.asarray(initial_position)
        )
        self.initial_uncertainty = initial_uncertainty

    def build(self) -> KalmanFilter:
        dt = self.dt
        transition = np.array(
            [
                [1, 0, dt, 0],
                [0, 1, 0, dt],
                [0, 0, 1, 0],
                [0, 0, 0, 1],
            ],
            dtype=float,
        )
        observation = np.array(
            [[1, 0, 0, 0], [0, 1, 0, 0]], dtype=float
        )
        # Piecewise-constant white acceleration model.
        q = self.process_noise
        g = np.array([0.5 * dt * dt, 0.5 * dt * dt, dt, dt])
        process = np.outer(g, g) * q * q
        # Decouple x/y axes (zero the cross terms between axes).
        mask = np.array(
            [
                [1, 0, 1, 0],
                [0, 1, 0, 1],
                [1, 0, 1, 0],
                [0, 1, 0, 1],
            ],
            dtype=float,
        )
        process = process * mask
        measurement = np.eye(2) * self.measurement_noise**2
        x0 = np.array(
            [self.initial_position[0], self.initial_position[1], 0.0, 0.0]
        )
        p0 = np.eye(4) * self.initial_uncertainty
        return KalmanFilter(transition, observation, process, measurement, x0, p0)
