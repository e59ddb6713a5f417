"""ServiceConfig: the typed construction path and its kwargs shim.

``RankingService(graph, **cfg.to_kwargs())`` and
``RankingService.from_config(graph, cfg)`` must build *identical*
services — same backend layout, same cache, same normalized
``service_config`` — because the kwargs path is a one-release
deprecation window over the dataclass, not a second construction
semantics.
"""

import dataclasses

import pytest

from repro.core import FrogWildConfig
from repro.errors import ConfigError
from repro.graph import twitter_like
from repro.serving import (
    LocalBackend,
    RankingQuery,
    RankingService,
    ServiceConfig,
    ShardedBackend,
)

GRAPH = twitter_like(n=250, seed=4)
CONFIG = FrogWildConfig(num_frogs=600, iterations=3, seed=1)


class TestEquivalence:
    def test_kwargs_and_from_config_build_identical_services(self):
        cfg = ServiceConfig(
            config=CONFIG,
            num_machines=4,
            num_shards=2,
            seed=9,
            max_batch_size=8,
            cache_capacity=32,
        )
        via_kwargs = RankingService(GRAPH, **cfg.to_kwargs())
        via_config = RankingService.from_config(GRAPH, cfg)
        try:
            assert via_kwargs.service_config == via_config.service_config
            assert type(via_kwargs.backend) is type(via_config.backend)
            assert via_kwargs.num_machines == via_config.num_machines
            assert via_kwargs.coalescer.max_batch_size == 8
            assert via_config.coalescer.max_batch_size == 8
            query = [RankingQuery(seeds=(1, 2), k=5)]
            a = via_kwargs.query_batch(query)[0]
            b = via_config.query_batch(query)[0]
            assert list(a.vertices) == list(b.vertices)
            assert list(a.scores) == list(b.scores)
        finally:
            via_kwargs.close()
            via_config.close()

    def test_normalized_config_is_exposed(self):
        service = RankingService(
            GRAPH, CONFIG, num_machines=4, seed=7, kernel="compiled"
        )
        try:
            assert service.service_config.kernel == "compiled"
            assert service.service_config.num_machines == 4
            assert service.service_config.seed == 7
            assert service.service_config.config is CONFIG
        finally:
            service.close()

    def test_defaults_match_init_defaults(self):
        cfg = ServiceConfig()
        service = RankingService(GRAPH)
        try:
            for field in dataclasses.fields(ServiceConfig):
                if field.name == "config":
                    continue  # __init__ defaults it per-seed
                assert getattr(service.service_config, field.name) == (
                    getattr(cfg, field.name)
                ), field.name
        finally:
            service.close()


class TestConfigApi:
    def test_evolve_returns_updated_copy(self):
        cfg = ServiceConfig(num_machines=4)
        shardy = cfg.evolve(num_shards=4)
        assert shardy.num_shards == 4
        assert shardy.num_machines == 4
        assert cfg.num_shards == 1  # original untouched

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            ServiceConfig().num_machines = 3

    def test_backend_selection_flows_through(self):
        local = RankingService.from_config(
            GRAPH, ServiceConfig(config=CONFIG, num_machines=4)
        )
        sharded = RankingService.from_config(
            GRAPH,
            ServiceConfig(config=CONFIG, num_machines=4, num_shards=2),
        )
        try:
            assert isinstance(local.backend, LocalBackend)
            assert isinstance(sharded.backend, ShardedBackend)
        finally:
            local.close()
            sharded.close()

    def test_from_config_rejects_frogwild_config(self):
        with pytest.raises(ConfigError):
            RankingService.from_config(GRAPH, CONFIG)
