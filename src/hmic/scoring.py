"""Anomaly scoring by minimum Mahalanobis distance to group centres.

Two centre layouts share one implementation: attribute-group centres (one
centre per attribute group under a section) and domain centres (one centre per
source/target domain under a section). Covariances are population covariances
with diagonal shrinkage so single-clip groups stay invertible. A machine's
test clips are scored in one call: each (section, group) runs one LU solve of
its Cholesky factor, with all of the section's clips as right-hand sides,
because numpy has no triangular solve. No explicit inverse is ever formed.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import HmicError

DOMAIN_INDEX = {"source": 0, "target": 1}


@dataclass(frozen=True)
class GroupCentre:
    label: int
    centre: np.ndarray  # (d,)
    covariance: np.ndarray  # (d, d), unshrunk population covariance
    shrink_eps: float
    n_clips: int
    solve: np.ndarray  # lower Cholesky factor of (covariance + shrink_eps * I), LU-solved


@dataclass(frozen=True)
class CentreModel:
    kind: str  # "agc" | "dc"
    groups_by_section: dict[int, tuple[GroupCentre, ...]]  # ascending label order


SHRINKAGE_REL = 1e-3

# (N,) scores, (N,) argmin group labels, row -> error; an error row scores NaN, argmin -1
Scores = tuple[np.ndarray, np.ndarray, dict[int, str]]


def _shrink_eps(cov: np.ndarray) -> float:
    """Diagonal shrinkage of a fitted group: SHRINKAGE_REL * trace/d, floor
    1e-6. A checkpoint stores it per group, and ``centre_model_from_tensors``
    takes it from there."""
    d = cov.shape[0]
    return max(SHRINKAGE_REL * float(np.trace(cov)) / d, 1e-6)


def _population_cov(devs: np.ndarray) -> np.ndarray:
    cov = devs.T @ devs / devs.shape[0]
    return 0.5 * (cov + cov.T)


def _factor(cov: np.ndarray, eps: float) -> np.ndarray:
    """Lower Cholesky factor L of cov + eps*I. A non-finite matrix raises
    HmicError (numpy would return NaNs); one that is not positive definite
    raises LinAlgError. Both are ValueErrors."""
    shrunk = cov + eps * np.eye(cov.shape[0])
    if not np.all(np.isfinite(shrunk)):
        raise HmicError("non-finite covariance or shrinkage")
    return np.linalg.cholesky(shrunk)


def _fit(feats: np.ndarray, labels: np.ndarray, sections: np.ndarray, kind: str) -> CentreModel:
    feats = np.asarray(feats, dtype=np.float64)
    labels = np.asarray(labels)
    sections = np.asarray(sections)
    if feats.ndim != 2 or feats.shape[0] == 0:
        raise HmicError(f"expected a non-empty (N, d) feature matrix, got {feats.shape}")
    if labels.shape != (feats.shape[0],) or sections.shape != (feats.shape[0],):
        raise HmicError("labels and sections must be 1-D and match the feature count")
    if not np.all(np.isfinite(feats)):
        raise HmicError("non-finite feature values")

    groups_by_section: dict[int, tuple[GroupCentre, ...]] = {}
    for section in sorted(set(int(s) for s in sections)):
        in_section = sections == section
        groups = []
        for label in sorted(set(int(l) for l in labels[in_section])):
            members = feats[in_section & (labels == label)]
            centre = members.mean(axis=0)
            cov = _population_cov(members - centre)
            eps = _shrink_eps(cov)
            groups.append(GroupCentre(label, centre, cov, eps, len(members), _factor(cov, eps)))
        groups_by_section[section] = tuple(groups)
    return CentreModel(kind=kind, groups_by_section=groups_by_section)


def fit_agc(feats: np.ndarray, group_labels: np.ndarray, sections: np.ndarray) -> CentreModel:
    """Attribute-group centres: one centre/covariance per group label."""
    return _fit(feats, group_labels, sections, "agc")


def fit_dc(feats: np.ndarray, domains: np.ndarray, sections: np.ndarray) -> CentreModel:
    """Domain centres: one centre per domain (source=0, target=1) under a section."""
    try:
        labels = np.array([DOMAIN_INDEX[d] for d in domains])
    except KeyError as exc:
        raise HmicError(f"unknown domain {str(exc.args[0])!r}") from None
    return _fit(feats, labels, sections, "dc")


def mahalanobis(feats: np.ndarray, centre: np.ndarray, solve: np.ndarray) -> np.ndarray:
    """(n,) distances sqrt((f - c)^T (Sigma + eps I)^{-1} (f - c)) = |L^{-1} (f - c)|
    of the rows f of ``feats`` (n, d), for the lower Cholesky factor ``solve`` = L
    of Sigma + eps I: one LU solve with every row as a right-hand side."""
    feats = np.asarray(feats, dtype=np.float64)
    centre = np.asarray(centre, dtype=np.float64)
    if feats.ndim != 2 or feats.shape[1:] != centre.shape:
        raise HmicError(f"dimension mismatch: rows {feats.shape} vs centre {centre.shape}")
    y = np.linalg.solve(solve, (feats - centre).T)
    with np.errstate(over="ignore"):  # a finite row far enough out overflows to inf
        return np.sqrt((y * y).sum(axis=0))


def _score(feats: np.ndarray, model: CentreModel, sections: np.ndarray) -> Scores:
    feats = np.asarray(feats, dtype=np.float64)
    sections = np.asarray(sections)
    if feats.ndim != 2 or sections.shape != feats.shape[:1]:
        raise HmicError(f"expected (N, d) embeddings and N sections, got {feats.shape} "
                        f"and {sections.shape}")
    scores, argmins = np.full(len(feats), np.nan), np.full(len(feats), -1)
    errors: dict[int, str] = {}
    for section in sorted(set(sections.tolist())):  # np.unique loads numpy.ma: 1.6 MB RSS
        rows = np.flatnonzero(sections == section)
        groups = model.groups_by_section.get(section)
        if not groups:
            errors.update((i, f"section {section} not present in the {model.kind} model")
                          for i in rows.tolist())
            continue
        finite = np.all(np.isfinite(feats[rows]), axis=1)
        errors.update((i, "non-finite embedding") for i in rows[~finite].tolist())
        rows = rows[finite]
        own = feats[rows]
        best, labels = np.full(len(rows), np.inf), np.full(len(rows), -1)
        # ascending label with a strict <: ties go to the lowest label
        for group in groups:
            distance = mahalanobis(own, group.centre, group.solve)
            closer = distance < best
            best[closer], labels[closer] = distance[closer], group.label
        overflows = ~np.isfinite(best)  # a finite embedding far enough out overflows
        errors.update((i, "Mahalanobis distance overflows") for i in rows[overflows].tolist())
        scores[rows[~overflows]], argmins[rows[~overflows]] = best[~overflows], labels[~overflows]
    return scores, argmins, errors


def score_agc(feats: np.ndarray, model: CentreModel, sections: np.ndarray) -> Scores:
    """Minimum Mahalanobis distance of each row of ``feats`` (N, d) over the
    attribute-group centres of its entry in ``sections`` (N,)."""
    if model.kind != "agc":
        raise HmicError(f"expected an attribute-group-centre model, got {model.kind!r}")
    return _score(feats, model, sections)


def score_dc(feats: np.ndarray, model: CentreModel, sections: np.ndarray) -> Scores:
    """``score_agc`` over the section's domain centres."""
    if model.kind != "dc":
        raise HmicError(f"expected a domain-centre model, got {model.kind!r}")
    return _score(feats, model, sections)


# --- checkpoint (de)serialization -------------------------------------------


_PARTS = ("centre", "cov", "stats")
_CENTRE_NAME = re.compile(rf"([0-9]+)/([0-9]+)/({'|'.join(_PARTS)})")  # after the prefix


def centre_model_to_tensors(model: CentreModel, prefix: str) -> dict[str, np.ndarray]:
    tensors: dict[str, np.ndarray] = {}
    for section, groups in model.groups_by_section.items():
        for group in groups:
            base = f"{prefix}/{section}/{group.label}"
            tensors[f"{base}/centre"] = group.centre
            tensors[f"{base}/cov"] = group.covariance
            tensors[f"{base}/stats"] = np.array([float(group.n_clips), group.shrink_eps])
    return tensors


def centre_model_from_tensors(
    tensors: dict[str, np.ndarray], prefix: str, kind: str
) -> CentreModel:
    """The centre model stored under ``prefix``. A name that is not
    ``prefix/<section>/<label>/<part>``, a group without its three parts, parts
    whose shapes disagree, a non-finite part, a clip count below one, a
    shrinkage that is not positive or a covariance that will not factor raise
    HmicError."""
    found: dict[int, dict[int, dict[str, np.ndarray]]] = {}
    marker = prefix + "/"
    for name, value in tensors.items():
        if not name.startswith(marker):
            continue
        match = _CENTRE_NAME.fullmatch(name[len(marker):])
        if match is None:
            raise HmicError(f"malformed centre tensor name {name!r}")
        section, label, part = match.groups()
        found.setdefault(int(section), {}).setdefault(int(label), {})[part] = value
    if not found:
        raise HmicError(f"no {prefix!r} tensors in checkpoint")
    groups_by_section = {}
    for section, per_label in found.items():
        groups = []
        for label in sorted(per_label):
            parts, base = per_label[label], f"{prefix}/{section}/{label}"
            try:
                centre, cov, stats = (parts[part] for part in _PARTS)
                if centre.ndim != 1 or cov.shape != centre.shape * 2 or stats.shape != (2,):
                    raise ValueError(f"shapes {centre.shape}, {cov.shape}, {stats.shape} misfit")
                if not (np.all(np.isfinite(centre)) and np.all(np.isfinite(stats))):
                    raise ValueError("non-finite centre or stats")
                n_clips, eps = int(stats[0]), float(stats[1])
                if n_clips < 1 or eps <= 0.0:
                    raise ValueError(f"{n_clips} clips, shrinkage {eps}")
                solve = _factor(cov, eps)  # checks cov; LinAlgError is a ValueError
                groups.append(GroupCentre(label, centre, cov, eps, n_clips, solve))
            except KeyError as exc:
                raise HmicError(f"{base} has no {exc.args[0]} tensor") from None
            except ValueError as exc:
                raise HmicError(f"{base}: unusable centre statistics ({exc})") from None
        groups_by_section[section] = tuple(groups)
    return CentreModel(kind=kind, groups_by_section=groups_by_section)
