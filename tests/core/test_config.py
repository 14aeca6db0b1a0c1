"""Tests for RepairConfig."""

import pytest

from repro.core.config import CandidateOrder, GoodnessMode, RepairConfig


class TestValidation:
    def test_defaults_follow_paper(self):
        config = RepairConfig()
        assert not config.stop_at_first
        assert config.max_added_attributes is None
        assert config.goodness_threshold is None
        assert config.goodness_mode is GoodnessMode.PREFER
        assert not config.exclude_unique
        assert config.max_expansions is None

    def test_bad_max_added(self):
        with pytest.raises(ValueError):
            RepairConfig(max_added_attributes=0)

    def test_bad_goodness_threshold(self):
        with pytest.raises(ValueError):
            RepairConfig(goodness_threshold=-1)

    def test_bad_max_expansions(self):
        with pytest.raises(ValueError):
            RepairConfig(max_expansions=0)

    @pytest.mark.parametrize(
        "field", ["max_added_attributes", "goodness_threshold", "max_expansions"]
    )
    @pytest.mark.parametrize("bad", [True, False, 2.5, "3"])
    def test_int_fields_reject_non_ints(self, field, bad):
        with pytest.raises(ValueError, match=f"{field} must be an int or None"):
            RepairConfig(**{field: bad})

    @pytest.mark.parametrize(
        "field, bad",
        [
            ("goodness_mode", "prefer"),
            ("goodness_mode", "exclude"),
            ("goodness_mode", None),
            ("candidate_order", "rank"),
            ("candidate_order", "name"),
            ("candidate_order", GoodnessMode.PREFER),
        ],
    )
    def test_enum_fields_reject_plain_values(self, field, bad):
        with pytest.raises(ValueError, match=f"{field} must be a "):
            RepairConfig(**{field: bad})

    def test_enum_members_accepted(self):
        config = RepairConfig(
            goodness_mode=GoodnessMode.EXCLUDE,
            candidate_order=CandidateOrder.NAME,
            max_added_attributes=2,
        )
        assert config.goodness_mode is GoodnessMode.EXCLUDE
        assert config.candidate_order is CandidateOrder.NAME

    def test_frozen(self):
        with pytest.raises(AttributeError):
            RepairConfig().stop_at_first = True


class TestPresets:
    def test_find_first(self):
        assert RepairConfig.find_first().stop_at_first

    def test_find_all(self):
        assert not RepairConfig.find_all().stop_at_first

    def test_presets_accept_overrides(self):
        config = RepairConfig.find_first(max_added_attributes=2)
        assert config.stop_at_first and config.max_added_attributes == 2


class TestThreshold:
    def test_no_threshold_accepts_everything(self):
        config = RepairConfig()
        assert config.within_threshold(10_000)

    def test_threshold_uses_absolute_value(self):
        config = RepairConfig(goodness_threshold=3)
        assert config.within_threshold(3)
        assert config.within_threshold(-3)
        assert not config.within_threshold(4)
        assert not config.within_threshold(-4)

    def test_zero_threshold_demands_bijection(self):
        config = RepairConfig(goodness_threshold=0)
        assert config.within_threshold(0)
        assert not config.within_threshold(1)
