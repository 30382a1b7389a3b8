"""The deterministic Fig. 2 model build that every workload's set-up pays.

A small teacher is trained, distilled into the paper's "DART" student
geometry (L=1, D=32, H=2, T=16, 256-bit bitmap) and tabularized with
fine-tuning into K=128, C=2 tables. The training trace is a 602.gcc prefix
under a seed no served trace uses; 602.gcc is chosen because its model
emits prefetches on held-out seeds (models for 605.mcf or 621.wrf emit
nothing, which would leave decode and the reply payloads unmeasured).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

TRAIN_WORKLOAD = "602.gcc"
TRAIN_SCALE = 0.1
#: seed of the training trace; served traces use :func:`served_seed`
TRAIN_SEED = 2_147_483_647
TRAIN_SAMPLES = 1000
EPOCHS = 3
TEACHER = {"layers": 2, "dim": 32, "heads": 2}
STUDENT = {"layers": 1, "dim": 32, "heads": 2}
TABLE_K, TABLE_C = 128, 2


def served_seed(seed: int, stream: int) -> int:
    """Trace seed of one served stream; never the training seed."""
    s = seed * 16 + stream
    if s == TRAIN_SEED:
        raise ValueError(f"--seed {seed} collides with the training trace seed")
    return s


@dataclass
class BuiltModel:
    dart: object      # DARTPrefetcher over the tables
    tabular: object   # TabularAttentionPredictor
    student: object   # the dense distilled student
    config: object    # PreprocessConfig
    #: raw seconds per Fig. 2 stage
    stages: dict


def build_model(between=None) -> BuiltModel:
    """Build the tables. ``between()`` (e.g. a host probe) runs after each
    stage, outside the stage timings."""
    from repro.data import PreprocessConfig, build_dataset, train_test_split
    from repro.distillation import TrainConfig, distill_student, train_model
    from repro.models import AttentionPredictor, ModelConfig
    from repro.prefetch.dart import DARTPrefetcher
    from repro.tabularization import TableConfig, tabularize_predictor
    from repro.traces import make_workload

    perf = time.perf_counter
    pre = PreprocessConfig()
    t0 = perf()
    trace = make_workload(TRAIN_WORKLOAD, scale=TRAIN_SCALE, seed=TRAIN_SEED)
    ds = build_dataset(trace.pcs, trace.addrs, pre, max_samples=TRAIN_SAMPLES)
    ds_train, _ = train_test_split(ds, 0.8)
    geometry = {"history_len": pre.history_len, "bitmap_size": pre.bitmap_size}
    teacher = AttentionPredictor(ModelConfig(**TEACHER, **geometry),
                                 ds.x_addr.shape[2], ds.x_pc.shape[2], rng=0)
    train_model(teacher, ds_train, None, TrainConfig(epochs=EPOCHS, seed=0))
    teacher_s = perf() - t0
    if between is not None:
        between()
    t0 = perf()
    student, _ = distill_student(teacher, ModelConfig(**STUDENT, **geometry), ds_train,
                                 None, TrainConfig(epochs=EPOCHS, lr=2e-3, seed=1), rng=1)
    student_s = perf() - t0
    if between is not None:
        between()
    t0 = perf()
    tabular, _ = tabularize_predictor(student, ds_train.x_addr, ds_train.x_pc,
                                      TableConfig.uniform(TABLE_K, TABLE_C),
                                      fine_tune=True, rng=2)
    convert_s = perf() - t0
    if between is not None:
        between()
    return BuiltModel(
        dart=DARTPrefetcher(tabular, pre),
        tabular=tabular,
        student=student,
        config=pre,
        stages={"teacher_s": teacher_s, "student_s": student_s, "convert_s": convert_s},
    )
