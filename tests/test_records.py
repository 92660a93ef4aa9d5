"""The records the library returns: read-only fields, in a fixed order, with
the equality, hash and checks each one had as a frozen dataclass."""

import inspect

import numpy as np
import pytest

from rmnml import hyperbolic as hy
from rmnml.coding import Partition, PrefixCode, partition_ball, prefix_code
from rmnml.complexity import (CodeLengthReport, ParamDomain, PcResult, pc_hgd,
                              rm_nml_codelength)
from rmnml.gaussian import MleFit, RgdParams, log_pdf_vol_many, mle, sample
from rmnml.validation import FisherBlock, SuiteResult, fisher_numeric

#: Each record's fields, in the order its constructor takes them.
FIELDS = {
    RgdParams: ("mu", "sigma"),
    ParamDomain: ("radius_R", "sigma_min", "sigma_max"),
    MleFit: ("params", "mu_clamped", "sigma_clamped", "max_log_lik"),
    PcResult: ("k", "n", "term_kn", "term_volume", "term_fisher"),
    CodeLengthReport: ("neg_max_loglik", "log_pc", "boundary_flag"),
    SuiteResult: ("name", "passed", "detail", "seconds"),
    FisherBlock: ("mu_block", "sigma_entry", "cross_block", "mu_block_se",
                  "sigma_entry_se", "cross_block_se", "n_samples"),
    Partition: ("r_edges", "angle_edges", "volumes"),
    PrefixCode: ("lengths", "kraft_sum", "average_bits", "lower_bound_bits"),
}


@pytest.fixture(scope="module")
def records():
    """One record of each type, each from the function that returns it."""
    params = RgdParams(hy.origin(2), 0.5)
    data = sample(50, params, seed=3)
    partition = partition_ball(1.0, 2, 2)
    found = [params, ParamDomain(), mle(data, ParamDomain()), pc_hgd(2, 50, ParamDomain()),
             rm_nml_codelength(data), SuiteResult("suite", True, "detail"),
             fisher_numeric(params, 10_000, seed=3), partition,
             prefix_code(partition, lambda x: log_pdf_vol_many(x, params))]
    return {type(record): record for record in found}


@pytest.mark.parametrize("cls", FIELDS, ids=lambda cls: cls.__name__)
def test_record_is_frozen(cls, records):
    record = records[cls]
    for field in FIELDS[cls]:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))


@pytest.mark.parametrize("cls", FIELDS, ids=lambda cls: cls.__name__)
def test_fields_keep_their_names_and_order(cls):
    assert tuple(inspect.signature(cls).parameters) == FIELDS[cls]
    assert getattr(cls, "_fields", FIELDS[cls]) == FIELDS[cls]


def test_domain_equality_and_hash_follow_its_values():
    assert ParamDomain() == ParamDomain(3.0, 0.1, 3.0)
    assert hash(ParamDomain()) == hash(ParamDomain(3.0, 0.1, 3.0))
    assert ParamDomain() != ParamDomain(3.0, 0.1, 2.0)
    assert repr(ParamDomain()) == "ParamDomain(radius_R=3.0, sigma_min=0.1, sigma_max=3.0)"


def test_replaced_domain_is_checked():
    with pytest.raises(ValueError, match="need 0 < sigma_min < sigma_max"):
        ParamDomain()._replace(sigma_min=-1.0)
    assert ParamDomain()._replace(radius_R=2.0) == ParamDomain(2.0)


def test_params_compare_by_identity():
    mu = hy.origin(2)
    a, b = RgdParams(mu, 0.5), RgdParams(mu, 0.5)
    assert a != b and a == a
    assert len({a, b}) == 2  # both hash, and they differ
    assert a.mu is not mu and not a.mu.flags.writeable and a.dim == 2


def test_partition_length_is_its_cell_count():
    partition = partition_ball(1.0, 3, 4)
    assert len(partition) == 12
    replaced = partition._replace(volumes=2.0 * partition.volumes)
    assert len(replaced) == 12 and np.array_equal(replaced.r_edges, partition.r_edges)


def test_suite_seconds_default_to_zero():
    assert SuiteResult("suite", True, "detail").seconds == 0.0
    assert SuiteResult("suite", True, "detail")._replace(seconds=1.5).seconds == 1.5

