"""Every public entry point that uses a shared argument check rejects bad input.

One row per (entry point, bad argument): a NaN temperature, rate, weight,
floor or scale, a tau1 below the cosine-temperature floor, a bool, None or
string in place of a number (a momentum coefficient, a recall cutoff k),
a k that is not a whole number, a noise rate outside [0, 1], a non-square
matrix, embedding rows of norm above 1, image and text batches of unequal
size, a label vector of the wrong length or a work array too short for one
B x B buffer. Each must raise ValueError before any computation.
"""

import numpy as np
import pytest

from gsc.discrimination import (SoftLabels, cross_modal_indicator, embedding_indicator,
                                embedding_structure_score, ensemble_update, gmm_fit,
                                intra_structure_score)
from gsc.evalmetrics import detection_metrics, recall_at_k
from gsc.losses import grad_total, loss_cm, loss_im, structure_logits
from gsc.model import Encoder
from gsc.numerics import (AdamState, adam_step, as_matrix, as_vector, bxb_view, derive_rng,
                          require_positive, require_unit_interval, softmax_rows)
from gsc.synthdata import GenSpec, generate, inject_noise, split
from gsc.trainer import TrainConfig

NAN = float("nan")
SQ = np.eye(3)
RECT = np.ones((3, 4))
Y = np.ones(3)
Y_SHORT = np.ones(2)


def _grad_total(n_txt=3, **kw):
    rng = derive_rng(0, "argument-checks")
    args = dict(y=Y, tau1=0.1, tau2=1.0, gamma=0.01)
    args.update(kw)
    return grad_total(Encoder.init([4, 3], rng), Encoder.init([5, 3], rng),
                      rng.standard_normal((3, 4)), rng.standard_normal((n_txt, 5)), **args)


def _adam(lr):
    return adam_step(np.zeros(2), np.ones(2), AdamState(m=np.zeros(2), v=np.zeros(2)), lr)


CASES = {
    "as_matrix-non-square": lambda: as_matrix(RECT, square=True),
    "as_vector-length": lambda: as_vector(Y_SHORT, 3),
    "bxb_view-short-work": lambda: bxb_view(np.empty(8), 3),
    "require_positive-nan": lambda: require_positive(NAN, "x"),
    "require_positive-zero": lambda: require_positive(0.0, "x"),
    "require_positive-inf-allow-zero": lambda: require_positive(np.inf, "x", allow_zero=True),
    "require_positive-bool": lambda: require_positive(True, "x"),
    "require_positive-string": lambda: require_positive("0.1", "x"),
    "require_unit_interval-none": lambda: require_unit_interval(None, "rho"),
    "softmax_rows-nan-tau": lambda: softmax_rows(SQ, NAN),
    "adam_step-nan-lr": lambda: _adam(NAN),
    "loss_cm-nan-tau1": lambda: loss_cm(SQ, Y, NAN),
    "loss_cm-non-square": lambda: loss_cm(RECT, Y, 0.1),
    "loss_cm-label-length": lambda: loss_cm(SQ, Y_SHORT, 0.1),
    "structure_logits-nan-tau2": lambda: structure_logits(SQ, SQ, Y, NAN),
    "structure_logits-non-square": lambda: structure_logits(RECT, RECT, Y, 1.0),
    "structure_logits-label-length": lambda: structure_logits(SQ, SQ, Y_SHORT, 1.0),
    "loss_im-nan-tau2": lambda: loss_im(SQ, SQ, Y, NAN),
    "loss_im-non-square": lambda: loss_im(RECT, RECT, Y, 1.0),
    "loss_im-label-length": lambda: loss_im(SQ, SQ, Y_SHORT, 1.0),
    "grad_total-nan-tau1": lambda: _grad_total(tau1=NAN),
    "grad_total-nan-tau2": lambda: _grad_total(tau2=NAN),
    "grad_total-nan-gamma": lambda: _grad_total(gamma=NAN),
    "grad_total-label-length": lambda: _grad_total(y=Y_SHORT),
    "grad_total-batch-sizes": lambda: _grad_total(n_txt=2),
    "cross_modal_indicator-nan-tau1": lambda: cross_modal_indicator(SQ, NAN),
    "cross_modal_indicator-non-square": lambda: cross_modal_indicator(RECT, 0.1),
    "embedding_indicator-nan-tau1": lambda: embedding_indicator(SQ, SQ, NAN),
    "embedding_indicator-batch-sizes": lambda: embedding_indicator(SQ, RECT.T, 0.1),
    "embedding_indicator-row-norm": lambda: embedding_indicator(2.0 * SQ, SQ, 0.1),
    "grad_total-tau1-below-floor": lambda: _grad_total(tau1=0.001),
    "embedding_indicator-tau1-below-floor": lambda: embedding_indicator(SQ, SQ, 0.001),
    "embedding_indicator-short-work": lambda: embedding_indicator(SQ, SQ, 0.1, np.empty(8)),
    "TrainConfig-tau1-below-floor": lambda: TrainConfig(tau1=0.001),
    "intra_structure_score-non-square": lambda: intra_structure_score(RECT, RECT, Y),
    "intra_structure_score-label-length": lambda: intra_structure_score(SQ, SQ, Y_SHORT),
    "embedding_structure_score-label-length":
        lambda: embedding_structure_score(RECT, RECT, Y_SHORT),
    "ensemble_update-label-length":
        lambda: ensemble_update(SoftLabels.ones(3), Y_SHORT, Y, 0.7, 0.7),
    **{f"ensemble_update-beta-{name}":
       (lambda beta=beta: ensemble_update(SoftLabels.ones(3), Y, Y, beta, 0.7))
       for name, beta in (("string", "0.7"), ("none", None), ("bool", True), ("nan", NAN))},
    "gmm_fit-nan-floor": lambda: gmm_fit(np.linspace(0.0, 1.0, 8), floor=NAN),
    "recall_at_k-non-square": lambda: recall_at_k(RECT, np.arange(3), 1),
    **{f"recall_at_k-k-{name}": (lambda k=k: recall_at_k(SQ, np.arange(3), k))
       for name, k in (("bool", True), ("float", 2.5), ("zero", 0), ("above-n", 4))},
    "detection_metrics-label-length":
        lambda: detection_metrics(Y_SHORT, np.zeros(3, dtype=bool)),
    **{f"TrainConfig-nan-{key}": (lambda key=key: TrainConfig(**{key: NAN}))
       for key in ("tau1", "tau2", "gamma", "lr", "lr_decay", "gmm_floor")},
    **{f"GenSpec-nan-{key}": (lambda key=key: GenSpec(**{key: NAN}))
       for key in ("sigma_cluster", "sigma_view")},
    "split-nan-fraction": lambda: split(generate(GenSpec(n=20, n_clusters=2)),
                                        NAN, 0.5, 0.5, derive_rng(0, "split")),
    "require_unit_interval-nan": lambda: require_unit_interval(NAN, "rho"),
    "require_unit_interval-above-one": lambda: require_unit_interval(1.5, "rho"),
    "inject_noise-nan-rho": lambda: inject_noise(generate(GenSpec(n=20, n_clusters=2)),
                                                 NAN, derive_rng(0, "noise")),
}


@pytest.mark.parametrize("call", list(CASES.values()), ids=list(CASES))
def test_shared_checks_reject_bad_arguments(call):
    with pytest.raises(ValueError):
        call()


# iters 0, True and 2.9 ran 1, 1 and 2 iterations
GMM_CASES = {"iters-zero": {"iters": 0}, "iters-bool": {"iters": True},
             "iters-float": {"iters": 2.9}}


@pytest.mark.parametrize("kwargs", list(GMM_CASES.values()), ids=list(GMM_CASES))
def test_gmm_fit_rejects_a_bad_iteration_count_or_tolerance(kwargs):
    (name,) = kwargs
    with pytest.raises(ValueError, match=rf"^{name} must be"):
        gmm_fit(np.linspace(0.0, 1.0, 8), **kwargs)


def test_require_positive_allows_zero_only_when_asked():
    require_positive(0.0, "gamma", allow_zero=True)
    require_positive(1e-300, "tau")
    require_unit_interval(0.0, "rho")
    require_unit_interval(1.0, "rho")
    assert as_vector(2.5, 1).tolist() == [2.5]  # a scalar is a length-1 vector
