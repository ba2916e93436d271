"""Essential platform devices.

"Such an approach also requires additional components to be emulated
including an MMU, interrupt controller, timer devices, storage and network
devices." (Section III). We model the subset the compute stack needs: a
UART for console output, a timer, an interrupt controller the driver polls,
and a simple block device backed by a RAM image.
"""

from repro.errors import BusError
from repro.mem.bus import MMIODevice
from repro.state import Stateful

# UART registers
UART_DATA = 0x0  # WO: transmit byte
UART_STATUS = 0x4  # RO: always ready (bit 0)

# Timer registers
TIMER_COUNT_LO = 0x0
TIMER_COUNT_HI = 0x4

# Interrupt controller registers
IRQC_PENDING = 0x0  # RO: pending source bitmask
IRQC_ACK = 0x4  # WO: clear sources

# Network device registers
NET_TX_DATA = 0x0  # WO: enqueue a byte of the outgoing frame
NET_TX_SEND = 0x4  # WO: transmit the queued frame
NET_RX_STATUS = 0x8  # RO: bytes available in the receive queue
NET_RX_DATA = 0xC  # RO: dequeue one byte

# Block device registers
BLK_SECTOR = 0x0  # RW: target sector
BLK_ADDR_LO = 0x4  # RW: memory buffer address
BLK_ADDR_HI = 0x8
BLK_CMD = 0xC  # WO: 1 = read sector, 2 = write sector
BLK_STATUS = 0x10  # RO: 1 = ok

SECTOR_SIZE = 512


class UART(MMIODevice, Stateful):
    """Console output device; captures transmitted bytes."""

    STATE_FIELDS = ("output",)

    def __init__(self):
        self.output = bytearray()

    def read_reg(self, offset):
        if offset == UART_STATUS:
            return 1
        if offset == UART_DATA:
            return 0
        raise BusError(f"bad UART register 0x{offset:x}")

    def write_reg(self, offset, value):
        if offset == UART_DATA:
            self.output.append(value & 0xFF)
        else:
            raise BusError(f"bad UART register 0x{offset:x}")

    @property
    def text(self):
        return self.output.decode("latin-1")


class Timer(MMIODevice, Stateful):
    """Monotonic counter; advanced by the platform per simulated event."""

    STATE_FIELDS = ("count",)

    def __init__(self):
        self.count = 0

    def tick(self, amount=1):
        self.count += amount

    def read_reg(self, offset):
        if offset == TIMER_COUNT_LO:
            return self.count & 0xFFFFFFFF
        if offset == TIMER_COUNT_HI:
            return (self.count >> 32) & 0xFFFFFFFF
        raise BusError(f"bad timer register 0x{offset:x}")

    def write_reg(self, offset, value):
        raise BusError("timer registers are read-only")


class InterruptController(MMIODevice, Stateful):
    """Latches device interrupt lines; the driver polls and acknowledges."""

    STATE_FIELDS = ("pending", "assertions")

    # interrupt source bits
    SRC_GPU_JOB = 1 << 0
    SRC_GPU_MMU = 1 << 1
    SRC_TIMER = 1 << 2
    SRC_BLOCK = 1 << 3

    def __init__(self):
        self.pending = 0
        self.assertions = 0

    def raise_irq(self, source):
        self.pending |= source
        self.assertions += 1

    def read_reg(self, offset):
        if offset == IRQC_PENDING:
            return self.pending
        raise BusError(f"bad IRQC register 0x{offset:x}")

    def write_reg(self, offset, value):
        if offset == IRQC_ACK:
            self.pending &= ~value
        else:
            raise BusError(f"bad IRQC register 0x{offset:x}")


class NetworkDevice(MMIODevice, Stateful):
    """A loopback network interface.

    Frames written through the TX registers are delivered to the receive
    queue (loopback), or to a host-side callback when one is installed —
    enough to exercise a guest network driver path without a real NIC.
    """

    STATE_FIELDS = ("_tx_queue", "_rx_queue", "frames_sent")

    def __init__(self, on_transmit=None):
        self._tx_queue = bytearray()
        self._rx_queue = bytearray()
        self.frames_sent = 0
        self.on_transmit = on_transmit

    def inject_frame(self, data):
        """Host-side: make *data* available to the guest receive path."""
        self._rx_queue.extend(data)

    def read_reg(self, offset):
        if offset == NET_RX_STATUS:
            return len(self._rx_queue)
        if offset == NET_RX_DATA:
            if not self._rx_queue:
                return 0
            return self._rx_queue.pop(0)
        raise BusError(f"bad network register 0x{offset:x}")

    def write_reg(self, offset, value):
        if offset == NET_TX_DATA:
            self._tx_queue.append(value & 0xFF)
        elif offset == NET_TX_SEND:
            frame = bytes(self._tx_queue)
            self._tx_queue.clear()
            self.frames_sent += 1
            if self.on_transmit is not None:
                self.on_transmit(frame)
            else:
                self._rx_queue.extend(frame)  # loopback
        else:
            raise BusError(f"bad network register 0x{offset:x}")


class BlockDevice(MMIODevice, Stateful):
    """Sector-addressed storage backed by a host-side RAM image."""

    # the image itself travels in the checkpoint's binary half
    # (read_image / load_image), beside the physical pages
    STATE_FIELDS = ("capacity_sectors", "_sector", "_addr_lo", "_addr_hi",
                    "_status")

    def __init__(self, memory, capacity_sectors=2048):
        self._memory = memory
        self._image = bytearray(capacity_sectors * SECTOR_SIZE)
        self.capacity_sectors = capacity_sectors
        self._sector = 0
        self._addr_lo = 0
        self._addr_hi = 0
        self._status = 1

    def load_image(self, data, sector=0):
        """Pre-populate the disk image (e.g. a guest file system)."""
        offset = sector * SECTOR_SIZE
        self._image[offset:offset + len(data)] = data

    def read_image(self, sector, count=1):
        offset = sector * SECTOR_SIZE
        return bytes(self._image[offset:offset + count * SECTOR_SIZE])

    def read_reg(self, offset):
        if offset == BLK_SECTOR:
            return self._sector
        if offset == BLK_ADDR_LO:
            return self._addr_lo
        if offset == BLK_ADDR_HI:
            return self._addr_hi
        if offset == BLK_STATUS:
            return self._status
        raise BusError(f"bad block-device register 0x{offset:x}")

    def write_reg(self, offset, value):
        if offset == BLK_SECTOR:
            self._sector = value
        elif offset == BLK_ADDR_LO:
            self._addr_lo = value
        elif offset == BLK_ADDR_HI:
            self._addr_hi = value
        elif offset == BLK_CMD:
            self._execute(value)
        else:
            raise BusError(f"bad block-device register 0x{offset:x}")

    def _execute(self, command):
        if self._sector >= self.capacity_sectors:
            self._status = 0
            return
        buffer_addr = self._addr_lo | (self._addr_hi << 32)
        image_off = self._sector * SECTOR_SIZE
        if command == 1:  # read sector into memory
            self._memory.write_block(buffer_addr, self._image[image_off:image_off + SECTOR_SIZE])
            self._status = 1
        elif command == 2:  # write sector from memory
            self._image[image_off:image_off + SECTOR_SIZE] = self._memory.read_block(
                buffer_addr, SECTOR_SIZE
            )
            self._status = 1
        else:
            self._status = 0
