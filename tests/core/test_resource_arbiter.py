"""TokenBucket / TenantQuota / ResourceArbiter: admission control."""

import pytest

from repro.core.budget import (
    ADMIT_OK,
    SHED_OVERLOADED,
    SHED_THROTTLED,
    ResourceArbiter,
    TenantQuota,
    TokenBucket,
)


class TestTokenBucket:
    def test_starts_full_and_drains(self):
        bucket = TokenBucket(rate=10.0, burst=5.0)
        assert all(bucket.try_take(1.0, 0.0) for _ in range(5))
        assert not bucket.try_take(1.0, 0.0)

    def test_refills_with_caller_time(self):
        bucket = TokenBucket(rate=10.0, burst=5.0)
        for _ in range(5):
            bucket.try_take(1.0, 0.0)
        assert not bucket.try_take(1.0, 0.0)
        assert bucket.try_take(1.0, 0.1)  # 0.1s * 10/s = 1 token
        assert not bucket.try_take(1.0, 0.1)

    def test_refill_caps_at_burst(self):
        bucket = TokenBucket(rate=100.0, burst=3.0)
        assert bucket.available(1000.0) == 3.0

    def test_time_never_runs_backwards(self):
        bucket = TokenBucket(rate=10.0, burst=10.0)
        bucket.try_take(10.0, 5.0)
        # An earlier timestamp neither refills nor corrupts state.
        assert not bucket.try_take(1.0, 4.0)
        assert bucket.try_take(1.0, 5.2)

    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0, burst=1.0)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, burst=0.0)
        bucket = TokenBucket(rate=1.0, burst=1.0)
        with pytest.raises(ValueError):
            bucket.try_take(-1.0, 0.0)


class TestTenantQuota:
    def test_unlimited_has_no_bucket(self):
        assert TenantQuota.unlimited().bucket() is None

    def test_burst_defaults_to_one_second(self):
        bucket = TenantQuota(ops_per_sec=50.0).bucket()
        assert bucket.burst == 50.0

    def test_validation(self):
        with pytest.raises(ValueError):
            TenantQuota(ops_per_sec=-1.0)
        with pytest.raises(ValueError):
            TenantQuota(burst_ops=5.0)  # burst without a rate
        with pytest.raises(ValueError):
            TenantQuota(ops_per_sec=1.0, max_inflight=0)


class TestResourceArbiterAdmission:
    def test_unknown_tenant_raises(self):
        arbiter = ResourceArbiter()
        with pytest.raises(KeyError):
            arbiter.admit("ghost")

    def test_unlimited_default_admits_everything(self):
        arbiter = ResourceArbiter()
        arbiter.register_tenant("t")
        assert all(arbiter.admit("t", now=0.0) == ADMIT_OK for _ in range(1000))

    def test_rate_quota_throttles_then_refills(self):
        arbiter = ResourceArbiter()
        arbiter.register_tenant("t", TenantQuota(ops_per_sec=10.0, burst_ops=5.0))
        decisions = [arbiter.admit("t", now=0.0) for _ in range(6)]
        assert decisions[:5] == [ADMIT_OK] * 5
        assert decisions[5] == SHED_THROTTLED
        assert arbiter.admit("t", now=0.5) == ADMIT_OK

    def test_inflight_bound_sheds_overloaded_until_release(self):
        arbiter = ResourceArbiter()
        arbiter.register_tenant("t", TenantQuota(max_inflight=2))
        assert arbiter.admit("t") == ADMIT_OK
        assert arbiter.admit("t") == ADMIT_OK
        assert arbiter.admit("t") == SHED_OVERLOADED
        arbiter.release("t")
        assert arbiter.inflight("t") == 1
        assert arbiter.admit("t") == ADMIT_OK

    def test_overload_shed_consumes_no_tokens(self):
        arbiter = ResourceArbiter()
        arbiter.register_tenant(
            "t", TenantQuota(ops_per_sec=10.0, burst_ops=2.0, max_inflight=1)
        )
        assert arbiter.admit("t", now=0.0) == ADMIT_OK
        # Queue full: shed before the bucket is touched.
        for _ in range(10):
            assert arbiter.admit("t", now=0.0) == SHED_OVERLOADED
        arbiter.release("t")
        assert arbiter.admit("t", now=0.0) == ADMIT_OK

    def test_tenants_are_isolated(self):
        arbiter = ResourceArbiter()
        quota = TenantQuota(ops_per_sec=10.0, burst_ops=1.0)
        arbiter.register_tenant("a", quota)
        arbiter.register_tenant("b", quota)
        assert arbiter.admit("a", now=0.0) == ADMIT_OK
        assert arbiter.admit("a", now=0.0) == SHED_THROTTLED
        assert arbiter.admit("b", now=0.0) == ADMIT_OK

    def test_describe_counts_sheds(self):
        arbiter = ResourceArbiter()
        arbiter.register_tenant(
            "t", TenantQuota(ops_per_sec=10.0, burst_ops=1.0, max_inflight=1)
        )
        arbiter.admit("t", now=0.0)
        arbiter.admit("t", now=0.0)  # overloaded (inflight full)
        arbiter.release("t")
        arbiter.admit("t", now=0.0)  # throttled (bucket empty)
        info = arbiter.describe()["tenants"]["t"]
        assert info["admitted"] == 1
        assert info["overloaded"] == 1
        assert info["throttled"] == 1

