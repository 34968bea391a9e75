"""Fleet generation against its document-and-parse reference.

:func:`repro.fleet.vehicle.generate_variants` and
:func:`repro.fleet.vehicle.variant_contracts` seed one generator per variant
and build each baseline contract from the drawn numbers.
``tests/harness.py`` keeps the earlier derivation as the reference: each
variant's generator is a spawned child of a generator seeded with the
fleet's seed, and each contract is written as a document that
:class:`~repro.contracts.language.ContractParser` parses.  Over drawn
:class:`FleetSpec` shapes, the variants must be equal, and every contract
equal field by field, its WCET, period and deadline bit for bit.  The drawn
shapes include builds whose extras shrink to a zero budget and builds whose
core stack needs more than one processor, where ``_variant_platform``
places the core stack contract by contract and may reject it.
"""

from __future__ import annotations

from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from harness import (reference_core_placement, reference_variant_contracts,
                     reference_variants)
from repro.fleet.vehicle import (FleetSpec, _variant_platform,
                                 generate_variants, variant_contracts)
from repro.mcc.mapping import MappingStrategy


@st.composite
def fleet_specs(draw):
    """Every :class:`FleetSpec` field, with processor counts up to 4 and
    base capacities low enough that a core stack overflows one processor
    and the extras get no budget."""
    min_processors = draw(st.integers(min_value=1, max_value=4))
    return FleetSpec(
        size=draw(st.integers(min_value=0, max_value=40)),
        seed=draw(st.integers(min_value=0, max_value=2**32)),
        heterogeneity=draw(st.floats(min_value=0.0, max_value=0.99)),
        num_variants=draw(st.integers(min_value=1, max_value=8)),
        extra_components=draw(st.integers(min_value=0, max_value=30)),
        min_processors=min_processors,
        max_processors=draw(st.integers(min_value=min_processors, max_value=4)),
        base_capacity=draw(st.floats(min_value=0.05, max_value=1.0)),
        deploy=draw(st.booleans()),
        mapping_strategy=draw(st.sampled_from(list(MappingStrategy))))


def contract_fields(contract):
    """Every field of a generated contract, its timing floats as hex."""
    timing = contract.timing
    return (contract.component,
            [type(requirement) for requirement in contract.requirements],
            timing.period.hex(), timing.wcet.hex(), timing.deadline.hex(),
            timing.jitter.hex(),
            contract.safety, contract.security, contract.resources,
            contract.requires, contract.provides, contract.metadata,
            repr(contract))


def core_placement(variant, spec):
    try:
        _variant_platform(variant, spec)
    except RuntimeError as error:
        return str(error)
    return None


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(spec=fleet_specs())
def test_generation_matches_the_parsed_reference(spec):
    variants = generate_variants(spec)
    assert variants == reference_variants(spec)
    assert [repr(variant) for variant in variants] == \
        [repr(variant) for variant in reference_variants(spec)]
    for variant in variants:
        contracts = variant_contracts(variant, spec)
        reference = reference_variant_contracts(variant, spec)
        assert [contract_fields(contract) for contract in contracts] == \
            [contract_fields(contract) for contract in reference]
        assert contracts == reference
        placement = core_placement(variant, spec)
        assert placement == reference_core_placement(variant, spec)
        if spec.extra_components:
            installed = len(contracts) - (4 if variant.has_telematics else 3)
            event("extras installed" if installed else "no extras installed")
        spread = sum(contract.timing.utilization for contract in contracts[:3]) \
            > variant.capacity - 1e-9
        event("core stack rejected" if placement else
              "core stack placed on several processors" if spread else
              "core stack fits one processor")


def test_a_build_without_headroom_installs_no_extras():
    """One processor of capacity 0.425 leaves the core stack no headroom
    under the 0.8 budget: the extras shrink to zero and are left out."""
    spec = FleetSpec(size=1, seed=3, heterogeneity=0.0, extra_components=5,
                     min_processors=1, max_processors=1, base_capacity=0.425)
    variant, = generate_variants(spec)
    contracts = variant_contracts(variant, spec)
    assert [contract.component for contract in contracts] == \
        [contract.component for contract in reference_variant_contracts(
            variant, spec)]
    assert not any(contract.component.startswith("app")
                   for contract in contracts)
