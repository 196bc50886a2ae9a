"""Campaign generators: one campaign document per (workload, seed).

The benchmark hands the simulator nothing but these generated campaign
files. The same seed always yields the same document, and different seeds
yield different documents (the seed is the base SoC seed, from which the
campaign expander derives every per-job seed).
"""

import json
from pathlib import Path

DEFAULT_SEED = 7  # the seed examples/campaigns/attack_grid.json ships with

ATTACK_GRID_FILE = Path("examples") / "campaigns" / "attack_grid.json"

# datapath_busy: fewer distinct seeds than FormatCache::kMaxEntries (64), so
# the protected-region formats of the whole grid fit in the cache.
DATAPATH_SEEDS = 12


def attack_grid(root, seed):
    """The attack_grid example campaign with its base seed replaced."""
    with open(Path(root) / ATTACK_GRID_FILE, encoding="utf-8") as f:
        doc = json.load(f)
    doc["base"]["soc"]["seed"] = seed
    return doc


def datapath_busy(seed):
    """Section-V SoC (3 CPUs + DMA, 300 transactions/CPU, write fraction
    0.4: the SocConfig defaults) over check placement x external-memory
    protection x external fraction x DATAPATH_SEEDS seeds."""
    return {
        "name": "datapath-busy",
        "description": "Bus-saturated ciphered traffic: distributed vs "
                       "centralized checks over cipher-only and "
                       "cipher+integrity external memory.",
        "base": {"soc": {"seed": seed}},
        "grid": {
            "security": ["distributed", "centralized"],
            "protection": ["cipher-only", "cipher+integrity"],
            "external_fraction": [0.3, 0.9],
            "seeds": DATAPATH_SEEDS,
        },
    }


def for_workload(workload, root, seed):
    if workload in ("attack_grid", "fleet_loopback"):
        return attack_grid(root, seed)
    if workload == "datapath_busy":
        return datapath_busy(seed)
    raise ValueError("unknown workload %r" % workload)


def write(doc, path):
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")
