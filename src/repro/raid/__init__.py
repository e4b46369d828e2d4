"""RAID substrate: layouts, in-memory block arrays, RAID-5/6 volumes."""

from repro.raid.array import BlockArray, DiskFailure
from repro.raid.layouts import Raid5Layout, cell_role, data_disk, locate_block, parity_disk
from repro.raid.raid5 import Raid5Array, row_xor, row_xor_raw
from repro.raid.raid6 import Raid6Array

__all__ = [
    "BlockArray",
    "DiskFailure",
    "Raid5Layout",
    "Raid5Array",
    "Raid6Array",
    "parity_disk",
    "data_disk",
    "locate_block",
    "cell_role",
    "row_xor",
    "row_xor_raw",
]

from repro.raid.scrub import Raid5ScrubReport, Raid6ScrubReport, scrub_raid5, scrub_raid6

__all__ += ["Raid5ScrubReport", "Raid6ScrubReport", "scrub_raid5", "scrub_raid6"]

from repro.raid.volume import Volume

__all__ += ["Volume"]
