"""Pinned generator actions of the modules that are built from other modules.

tests/golden/actions.json holds, for fixed parameters of the whittaker,
w_mu_kappa, shifted, embedded and fock variants, the image act_gen(g, key)
of every key of window(2) under every supported generator of
basis_window(2), as a map key_str -> key_str -> coefficient, and the derived character phi_prime of two
Whittaker characters.  Refactors of these modules must leave every entry as
it is, also after module_axiom_check has read them through the act_gen memo.

Re-record (only when an action is meant to change):

    PYTHONPATH=src python tests/test_action_tables.py
"""

import json
import os

import pytest

from heisvir.algebra import Q, basis_window, d, gen_str, I, Z1
from heisvir.errors import UnsupportedGenerator
from heisvir.modules import (
    EmbeddedModule,
    FockModule,
    HWParams,
    IntermediateSeriesModule,
    ISParams,
    ShiftedTensorModule,
    WhittakerCharacter,
    WhittakerModule,
    WMuKappaModule,
    module_axiom_check,
    phi_prime,
)
from oracles import to_fractions

TABLES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "actions.json")

CHARACTERS = [
    WhittakerCharacter(1, {1: 2, 2: 1}, {0: 3, 1: 4}, z1=0, z2=0, z3=1),
    WhittakerCharacter(2, {2: 1, 3: Q(1, 2), 4: 3}, {0: 2, 1: Q(4, 5), 2: 7}, z1=1, z2=2, z3=3),
]

MODULES = {
    "whittaker": lambda: WhittakerModule(CHARACTERS[1]),
    "w_mu_kappa": lambda: WMuKappaModule(2, [1, Q(1, 2), 3], [2, 0, Q(-1, 3)]),
    "shifted": lambda: ShiftedTensorModule(HWParams(Q(2, 3), Q(5, 7), 1, Q(1, 3), 2), ISParams(Q(1, 2), Q(1, 3), 2)),
    "embedded": lambda: EmbeddedModule([1, 2], [3, Q(1, 2)], 2),
    "fock": lambda: FockModule(Q(2, 3), Q(-1, 2), 5),
}


def action_table(module) -> dict:
    return {
        gen_str(g): {
            module.key_str(key): {module.key_str(k): str(c) for k, c in to_fractions(module.act_gen(g, key)).items()}
            for key in module.window(2)
        }
        for g in basis_window(2)
        if module.supports(g)
    }


def phi_prime_table(char) -> dict:
    pp = phi_prime(char)
    return {"m": pp.m, "z1": str(pp.z1), "d": {str(k): str(pp.d_val(k)) for k in range(pp.m, 2 * pp.m + 2)}}


def tables() -> dict:
    out = {name: action_table(build()) for name, build in MODULES.items()}
    out["phi_prime"] = [phi_prime_table(char) for char in CHARACTERS]
    return out


def _golden():
    with open(TABLES, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(MODULES))
def test_action_table(name):
    M = MODULES[name]()
    assert action_table(M) == _golden()[name]
    # the check reads the memoized images; a caller that mutated one would change the table
    module_axiom_check(M, 2, M.window(2))
    assert action_table(M) == _golden()[name]


@pytest.mark.parametrize(
    "module",
    [IntermediateSeriesModule(ISParams(Q(1, 2), Q(1, 3), 2)), MODULES["shifted"]()],
    ids=["iseries", "shifted"],
)
def test_act_gen_is_memoized(module):
    for g in basis_window(2):
        for key in module.window(2):
            assert module.act_gen(g, key) is module.act_gen(g, key)


def test_phi_prime_table():
    assert [phi_prime_table(char) for char in CHARACTERS] == _golden()["phi_prime"]


@pytest.mark.parametrize(
    "g, message",
    [
        (I(-1), "I\\(-1\\) is outside the polynomial subalgebra"),
        (d(-2), "d\\(-2\\) is outside the polynomial subalgebra"),
        (Z1, None),
    ],
)
def test_wmukappa_act_gen_rejects_unsupported(g, message):
    M = MODULES["w_mu_kappa"]()
    for key in M.window(1):
        with pytest.raises(UnsupportedGenerator, match=message):
            M.act_gen(g, key)


if __name__ == "__main__":
    with open(TABLES, "w", encoding="utf-8") as fh:
        json.dump(tables(), fh, indent=1)
        fh.write("\n")
