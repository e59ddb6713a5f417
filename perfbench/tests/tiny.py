"""Every workload at toy scale, for tests of the benchmark's own code."""

import workloads


class TinyGlobal(workloads.GlobalTopK):
    SCALE = 8
    FROGS = 4000
    SETUPS = 2
    GRAPHLAB_ITERATIONS = 2


class TinyInproc(workloads.BatchInproc):
    SCALE = 8
    BATCH = 8
    FROGS = 500
    MASS_SAMPLE = 4
    SETUPS = 2


class TinyProcess(workloads.BatchProcess, TinyInproc):
    SETUPS = 2


class TinyPopulation(workloads.ZipfPopulation):
    USERS = 50


class TinyZipf(workloads.ZipfOpen):
    SCALE = 8
    FROGS = 500
    RATES = {"lo": 20.0, "mid": 40.0, "hi": 60.0}
    MASS_SAMPLE = 4
    DRAIN_S = 2.0
    SETUPS = 2
    POPULATION = TinyPopulation


class TinyLive(workloads.LiveChurn):
    SCALE = 8
    FROGS = 500
    READ_BATCH = 4
    CHURN_RATE = 1e-2
    SETUPS = 2
    POPULATION = TinyPopulation


TINY = [TinyGlobal, TinyInproc, TinyProcess, TinyZipf, TinyLive]
