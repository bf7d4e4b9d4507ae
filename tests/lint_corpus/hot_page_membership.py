# expect: REPRO107
# repro-lint: module=repro.memsim.corpus_hotpath
"""Per-page membership probes in an index loop: the pattern the flat-list
memory system (flat residency/touch masks) exists to eliminate.

Each iteration hashes a boxed page index against a Python set; at
pages-per-chunk x chunks x faults scale these probes dominate simulator
wall time.  The fix is a bit-mask or flat-array lookup.
"""


def count_resident(base_vpn, pages, resident_set):
    hits = 0
    for offset in range(pages):
        if base_vpn + offset in resident_set:  # per-page set probe
            hits += 1
    return hits
