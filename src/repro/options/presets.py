"""Preset Bus System specifications.

Builders for the five generated architectures of section IV.B (BFBA, GBAVI,
GBAVIII, Hybrid, SplitBA) and the two hand-designed baselines (GGBA,
Figure 9; CCBA, Figure 8), each parameterized by processor count.

Defaults follow the paper's experiments: 4 PEs, 8 MB SRAM per BAN
(address width 20, data width 64 -- Example 9), 32-bit address / 64-bit
data buses, 1024-word Bi-FIFOs, for 32 MB total memory.
"""

from __future__ import annotations

from typing import List, Optional

from .schema import (
    BANSpec,
    BusSpec,
    BusSubsystemSpec,
    BusSystemSpec,
    MemorySpec,
    OptionError,
    did_you_mean,
)

__all__ = [
    "ban_letters",
    "bfba",
    "gbavi",
    "gbavii",
    "gbaviii",
    "hybrid",
    "splitba",
    "ggba",
    "ccba",
    "preset",
    "preset_name",
    "PRESETS",
]


def ban_letters(count: int) -> List[str]:
    """BAN names A, B, C, ... skipping G (reserved for global-resource BANs)."""
    letters = []
    code = ord("A")
    while len(letters) < count:
        letter = chr(code)
        if letter != "G":
            letters.append(letter)
        code += 1
        if code > ord("Z"):
            # Beyond 25 PEs, switch to A1, B1, ... (BusSyn supports any count).
            break
    index = 1
    while len(letters) < count:
        for base in "ABCDEFHIJKLMNOPQRSTUVWXYZ":
            letters.append("%s%d" % (base, index))
            if len(letters) == count:
                break
        index += 1
    return letters


def _sram(name: str, address_width: int = 20, data_width: int = 64) -> MemorySpec:
    return MemorySpec("SRAM", address_width, data_width, name=name)


def _pe_ban(letter: str, cpu_type: str, local_memory: bool, mem_aw: int) -> BANSpec:
    memories = [_sram("SRAM_%s" % letter, mem_aw)] if local_memory else []
    return BANSpec(name=letter, cpu_type=cpu_type, memories=memories)


def _global_ban(name: str, mem_aw: int) -> BANSpec:
    return BANSpec(
        name=name,
        cpu_type="NONE",
        memories=[_sram("GLOBAL_SRAM_%s" % name, mem_aw)],
        is_global_resource=True,
    )


def bfba(
    pe_count: int = 4,
    cpu_type: str = "MPC755",
    fifo_depth: int = 1024,
    mem_address_width: int = 20,
) -> BusSystemSpec:
    """Bi-FIFO Bus Architecture (Figure 4): FIFOs between adjacent BANs."""
    letters = ban_letters(pe_count)
    subsystem = BusSubsystemSpec(
        name="SUB1",
        bans=[_pe_ban(l, cpu_type, True, mem_address_width) for l in letters],
        buses=[BusSpec("BFBA", fifo_depth=fifo_depth)],
    )
    spec = BusSystemSpec(name="BFBA", subsystems=[subsystem])
    spec.validate()
    return spec


def gbavi(
    pe_count: int = 4,
    cpu_type: str = "MPC755",
    mem_address_width: int = 20,
) -> BusSystemSpec:
    """Global Bus Architecture Version I (Figure 3): bridge-segmented bus."""
    letters = ban_letters(pe_count)
    subsystem = BusSubsystemSpec(
        name="SUB1",
        bans=[_pe_ban(l, cpu_type, True, mem_address_width) for l in letters],
        buses=[BusSpec("GBAVI")],
    )
    spec = BusSystemSpec(name="GBAVI", subsystems=[subsystem])
    spec.validate()
    return spec


def gbavii(
    pe_count: int = 4,
    cpu_type: str = "MPC755",
    mem_address_width: int = 20,
    global_address_width: int = 20,
) -> BusSystemSpec:
    """Global Bus Architecture Version II (extension).

    The paper presents GBAVII in [1] but omits it from automated generation
    "due to space constraints; however, if desired, the GBAVII bus could
    easily be added to our tool" (section IV.B).  We add it with the
    natural interpolation between versions I and III: the bridge-segmented
    global bus of GBAVI *plus* a global-memory BAN on the ring, reachable
    through the bus bridges (no dedicated global arbiter -- each segment's
    own arbitration serializes access on the way).
    """
    letters = ban_letters(pe_count)
    bans = [_pe_ban(l, cpu_type, True, mem_address_width) for l in letters]
    bans.append(_global_ban("G", global_address_width))
    subsystem = BusSubsystemSpec(
        name="SUB1",
        bans=bans,
        buses=[BusSpec("GBAVII")],
    )
    spec = BusSystemSpec(name="GBAVII", subsystems=[subsystem])
    spec.validate()
    return spec


def gbaviii(
    pe_count: int = 4,
    cpu_type: str = "MPC755",
    mem_address_width: int = 20,
    global_address_width: int = 20,
    grant_cycles: int = 3,
    name: str = "GBAVIII",
) -> BusSystemSpec:
    """Global Bus Architecture Version III (Figure 5): global arbiter+memory."""
    letters = ban_letters(pe_count)
    bans = [_pe_ban(l, cpu_type, True, mem_address_width) for l in letters]
    bans.append(_global_ban("G", global_address_width))
    subsystem = BusSubsystemSpec(
        name="SUB1",
        bans=bans,
        buses=[BusSpec("GBAVIII", grant_cycles=grant_cycles)],
    )
    spec = BusSystemSpec(name=name, subsystems=[subsystem])
    spec.validate()
    return spec


def hybrid(
    pe_count: int = 4,
    cpu_type: str = "MPC755",
    fifo_depth: int = 1024,
    mem_address_width: int = 20,
    global_address_width: int = 20,
) -> BusSystemSpec:
    """Hybrid (Figure 6): BFBA Bi-FIFOs plus a GBAVIII global bus."""
    letters = ban_letters(pe_count)
    bans = [_pe_ban(l, cpu_type, True, mem_address_width) for l in letters]
    bans.append(_global_ban("G", global_address_width))
    subsystem = BusSubsystemSpec(
        name="SUB1",
        bans=bans,
        buses=[
            BusSpec("BFBA", fifo_depth=fifo_depth),
            BusSpec("GBAVIII"),
        ],
    )
    spec = BusSystemSpec(name="HYBRID", subsystems=[subsystem])
    spec.validate()
    return spec


def splitba(
    pe_count: int = 4,
    cpu_type: str = "MPC755",
    mem_address_width: int = 20,
    global_address_width: int = 20,
) -> BusSystemSpec:
    """Split Bus Architecture (Figure 7): two bridged global-bus subsystems.

    Each subsystem carries half the PEs plus its own shared memory and
    arbiter; a Bus Bridge joins the two halves.
    """
    if pe_count < 2:
        raise OptionError("SplitBA needs at least 2 PEs (one per subsystem)")
    letters = ban_letters(pe_count)
    half = (pe_count + 1) // 2
    subsystems = []
    for index, chunk in enumerate((letters[:half], letters[half:]), start=1):
        bans = [_pe_ban(l, cpu_type, False, mem_address_width) for l in chunk]
        bans.append(_global_ban("G%d" % index, global_address_width))
        subsystems.append(
            BusSubsystemSpec(
                name="SUB%d" % index,
                bans=bans,
                buses=[BusSpec("SPLITBA")],
            )
        )
    spec = BusSystemSpec(name="SPLITBA", subsystems=subsystems)
    spec.validate()
    return spec


def ggba(
    pe_count: int = 4,
    cpu_type: str = "MPC755",
    global_address_width: int = 22,
) -> BusSystemSpec:
    """General Global Bus Architecture (Figure 9, hand-design baseline).

    One global bus, one arbiter, one shared memory; the PEs have *no* local
    memories -- program and local data live in the shared memory, which is
    the source of the extra arbitration traffic in observation (B).
    """
    letters = ban_letters(pe_count)
    bans = [_pe_ban(l, cpu_type, False, 20) for l in letters]
    bans.append(_global_ban("G", global_address_width))
    subsystem = BusSubsystemSpec(
        name="SUB1",
        bans=bans,
        buses=[BusSpec("GGBA")],
    )
    spec = BusSystemSpec(name="GGBA", subsystems=[subsystem])
    spec.validate()
    return spec


def ccba(
    pe_count: int = 4,
    cpu_type: str = "MPC755",
    mem_address_width: int = 20,
    global_address_width: int = 20,
) -> BusSystemSpec:
    """CoreConnect-style baseline (Figure 8, hand design).

    Modelled as a PLB: a single arbitrated bus with a 5-cycle read grant
    (versus 3 for the generated buses -- the margin called out under
    Table III); per-PE SRAMs and the shared memory all sit behind the PLB.
    """
    letters = ban_letters(pe_count)
    bans = [_pe_ban(l, cpu_type, True, mem_address_width) for l in letters]
    bans.append(_global_ban("G", global_address_width))
    subsystem = BusSubsystemSpec(
        name="SUB1",
        bans=bans,
        buses=[BusSpec("CCBA", grant_cycles=5, write_grant_cycles=3)],
    )
    spec = BusSystemSpec(name="CCBA", subsystems=[subsystem])
    spec.validate()
    return spec


PRESETS = {
    "BFBA": bfba,
    "GBAVI": gbavi,
    "GBAVII": gbavii,
    "GBAVIII": gbaviii,
    "HYBRID": hybrid,
    "SPLITBA": splitba,
    "GGBA": ggba,
    "CCBA": ccba,
}


def preset_name(name: str) -> str:
    """The canonical (upper-case) preset name, or an :class:`OptionError`
    naming the closest match and every known architecture."""
    key = str(name).upper()
    if key not in PRESETS:
        known = sorted(PRESETS)
        raise OptionError(
            "unknown architecture %r%s; known architectures: %s"
            % (name, did_you_mean(key, known), ", ".join(known))
        )
    return key


def preset(name: str, pe_count: int = 4, **kwargs) -> BusSystemSpec:
    """Build a preset Bus System by name (case-insensitive)."""
    return PRESETS[preset_name(name)](pe_count, **kwargs)
