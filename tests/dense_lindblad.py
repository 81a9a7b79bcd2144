"""Dense density-matrix oracle for the atom-loss master equation.

It integrates the master equation on the direct sum of all atom-number
sectors up to the initial N, which validates the quantum-jump unraveling
of :mod:`spinmo.opensystem` at small N.
"""

from __future__ import annotations

import math

import numpy as np

from spinmo.basis import StateVector
from spinmo.errors import ConfigError
from spinmo.observables import singlet_amplitudes
from spinmo.operators import PhysicsParams
from spinmo.schedule import Hold, Schedule

from full_basis import (
    FullBasis, ResourceCapError, embed, l2_full, lx_full, ly_full, lz_full, n0_full,
)

DENSE_N_CAP = 8


class DenseLindblad:
    """RK4 integrator for the loss master equation on the direct sum of
    all atom-number sectors up to the initial N (oracle for trajectories)."""

    def __init__(self, n_max: int, params: PhysicsParams, gamma_per_s: float):
        if n_max > DENSE_N_CAP:
            raise ResourceCapError(f"dense oracle capped at N={DENSE_N_CAP}")
        self.n_max = n_max
        self.params = params
        self.gamma = gamma_per_s
        self.bases = []
        self.offsets = [0]
        for n in range(n_max + 1):
            b = FullBasis(n) if n > 0 else None
            self.bases.append(b)
            self.offsets.append(self.offsets[-1] + (b.size if b else 1))
        self.dim = self.offsets[-1]
        self._jump_ops = self._build_jumps()

    def block(self, n: int) -> slice:
        return slice(self.offsets[n], self.offsets[n + 1])

    def _build_jumps(self) -> list[np.ndarray]:
        """Dense a_m over the direct sum, m in (-1, 0, +1)."""
        ops = []
        for mi, channel in enumerate((-1, 0, 1)):
            op = np.zeros((self.dim, self.dim))
            for n in range(1, self.n_max + 1):
                src = self.bases[n]
                dst = self.bases[n - 1]
                for i, (nm, n0, npl) in enumerate(src.states):
                    occ = (nm, n0, npl)[mi]
                    if occ == 0:
                        continue
                    tgt = list((nm, n0, npl))
                    tgt[mi] -= 1
                    if n - 1 == 0:
                        j = 0
                    else:
                        j = dst.index_of(tuple(tgt))
                    op[self.offsets[n - 1] + j, self.offsets[n] + i] = math.sqrt(occ)
            ops.append(op)
        return ops

    def hamiltonian(self, q_hz: float) -> np.ndarray:
        p = self.params
        h = np.zeros((self.dim, self.dim))
        for n in range(1, self.n_max + 1):
            basis = self.bases[n]
            blk = self.block(n)
            h_n = (
                p.factor * p.c2p_hz / n * l2_full(basis).toarray()
                - p.factor * q_hz * np.diag(n0_full(basis))
            )
            h[blk, blk] = h_n
        return h

    def initial_density(self, state: StateVector) -> np.ndarray:
        n = state.basis.n_atoms
        rho = np.zeros((self.dim, self.dim), dtype=np.complex128)
        vec = embed(state, self.bases[n])
        rho[self.block(n), self.block(n)] = np.outer(vec, vec.conj())
        return rho

    def run(
        self,
        state0: StateVector,
        schedule: Schedule,
        dt: float | None = None,
        sample_dt: float | None = None,
    ) -> list[tuple[float, np.ndarray]]:
        """Integrate the master equation through hold segments; returns (t, rho).

        Works in the interaction picture of the (constant within a hold)
        Hamiltonian: the coherent rotation is applied exactly through
        eigenphases and RK4 only integrates the Gamma-small dissipator
        with the oscillating jump operators, which keeps the density
        matrix positive to machine accuracy at modest step counts.
        """
        for seg in schedule.segments:
            if not isinstance(seg, Hold):
                raise ConfigError("the dense oracle integrates hold schedules only")
        rho = self.initial_density(state0)
        out = [(0.0, rho.copy())]
        t_global = 0.0
        for seg in schedule.segments:
            h = self.hamiltonian(seg.q_hz)
            evals, vecs = np.linalg.eigh(h)
            # eigenframe: sigma = V^dag rho V; alpha_m = V^dag a_m V
            sigma = vecs.conj().T @ rho @ vecs
            alphas = [vecs.conj().T @ a @ vecs for a in self._jump_ops]
            omega = np.subtract.outer(evals, evals)  # lambda_i - lambda_j
            spread = float(evals.max() - evals.min())
            dt0 = dt if dt is not None else min(
                5e-3, (2.0 * math.pi / (24.0 * spread)) if spread > 0 else 5e-3
            )
            n_steps = max(1, math.ceil(seg.duration / dt0))
            dt0 = seg.duration / n_steps
            g = self.gamma

            def dissipator(sig, tau):
                ph = np.exp(1j * omega * tau)
                outp = np.zeros_like(sig)
                for al in alphas:
                    at = al * ph
                    atd = at.conj().T
                    outp += 2.0 * at @ sig @ atd - atd @ (at @ sig) - (sig @ atd) @ at
                return g * outp

            for s in range(n_steps):
                tau = s * dt0
                k1 = dissipator(sigma, tau)
                k2 = dissipator(sigma + 0.5 * dt0 * k1, tau + 0.5 * dt0)
                k3 = dissipator(sigma + 0.5 * dt0 * k2, tau + 0.5 * dt0)
                k4 = dissipator(sigma + dt0 * k3, tau + dt0)
                sigma = sigma + (dt0 / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
                if sample_dt and (s + 1) % max(1, round(sample_dt / dt0)) == 0:
                    # undo the local interaction picture at tau = (s+1)*dt0
                    ph = np.exp(-1j * evals * ((s + 1) * dt0))
                    rho_t = (vecs * ph) @ sigma @ (vecs * ph).conj().T
                    out.append((t_global + (s + 1) * dt0, rho_t))
            ph = np.exp(-1j * evals * seg.duration)
            rho = (vecs * ph) @ sigma @ (vecs * ph).conj().T
            t_global += seg.duration
        if not sample_dt:
            out.append((t_global, rho.copy()))
        return out

    def observables(self, rho: np.ndarray) -> dict:
        """<n0>, xi^2, F_singlet and <N> of a direct-sum density matrix."""
        tr = float(np.real(np.trace(rho)))
        n0e = 0.0
        ne = 0.0
        mom = np.zeros(6)  # lx, ly, lz, lx2, ly2, lz2
        fs = 0.0
        for n in range(self.n_max + 1):
            blk = self.block(n)
            sub = rho[blk, blk]
            if n == 0:
                continue
            basis = self.bases[n]
            n0e += float(np.real(np.trace(sub @ np.diag(n0_full(basis)))))
            ne += n * float(np.real(np.trace(sub)))
            lx, ly = lx_full(basis).toarray(), ly_full(basis).toarray()
            lz = np.diag(lz_full(basis))
            mom[0] += float(np.real(np.trace(sub @ lx)))
            mom[1] += float(np.real(np.trace(sub @ ly)))
            mom[2] += float(np.real(np.trace(sub @ lz)))
            mom[3] += float(np.real(np.trace(sub @ (lx @ lx))))
            mom[4] += float(np.real(np.trace(sub @ (ly @ ly))))
            mom[5] += float(np.real(np.trace(sub @ (lz @ lz))))
            if n % 2 == 0:
                target = singlet_amplitudes(n)
                full = self.bases[n]
                vec = np.zeros(full.size, dtype=np.complex128)
                vec[full.block(0)] = target
                fs += float(np.real(vec.conj() @ sub @ vec))
        xi2 = (mom[3] - mom[0] ** 2 + mom[4] - mom[1] ** 2 + mom[5] - mom[2] ** 2) / max(ne, 1e-300)
        return {"trace": tr, "n0": n0e, "n": ne, "xi2": xi2, "f_singlet": fs}
