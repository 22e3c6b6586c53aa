"""The Eternal Interceptor: address interposition for published IORs.

Paper section 3.1: "Eternal replaces the {server host, server port} in
the IOR of each server replica with the {gateway host, gateway port}
through the use of its Interceptor.  The intent of the Interceptor is
to interpose at the point that the server-side ORB queries the
operating system for the host and the port information, prior to
publishing the IOR" — i.e. ``getsockname()``/``sysinfo()`` are
overridden via library interpositioning.

In this reproduction the syscall seam is
:meth:`repro.orb.orb.Orb.published_address`: the mini-ORB "asks the OS"
for its address through that method when building an IOR, and
:meth:`EternalInterceptor.interpose_orb` overrides it — the same
information flow as the paper's ``LD_PRELOAD`` trick, without parsing
or rewriting IOR strings (which the paper also deliberately avoids).

For replicated objects managed wholly by Eternal (no per-replica ORB
exists), :meth:`published_ior` builds the published reference directly:
one profile per gateway of the domain (the multi-profile "stitched" IOR
of section 3.5), all carrying the object key that encodes the target
group.
"""

from __future__ import annotations

from typing import List, Optional, Tuple, TYPE_CHECKING

from ..errors import ConfigurationError
from ..iiop.ior import Ior, stitch_profiles
from ..orb.orb import Orb
from .naming import make_object_key

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .domain import FaultToleranceDomain


class EternalInterceptor:
    """Publishes gateway-addressed IORs for a fault tolerance domain."""

    def __init__(self, domain: "FaultToleranceDomain") -> None:
        self.domain = domain

    # ------------------------------------------------------------------
    # IOR publication for Eternal-managed groups
    # ------------------------------------------------------------------

    def gateway_addresses(self) -> List[Tuple[str, int]]:
        # References published "now" lead with currently-live gateways;
        # profiles of crashed gateways stay in the list (a client holding
        # an old IOR would still have them) but move to the tail.
        gateways = sorted(self.domain.gateways,
                          key=lambda gw: not gw.host.alive)
        addresses = [(gw.host.name, gw.port) for gw in gateways]
        if not addresses:
            raise ConfigurationError(
                f"domain {self.domain.name!r} has no gateway: published IORs "
                "would be unreachable from outside the domain")
        return addresses

    def published_ior(self, group_id: int, type_id: str,
                      first_gateway_only: bool = False,
                      addresses: Optional[List[Tuple[str, int]]] = None,
                      ) -> Ior:
        """The IOR Eternal publishes for a replicated group.

        ``first_gateway_only`` produces the single-profile IOR that
        plain ORBs effectively see (section 3.4); the default stitches
        one profile per redundant gateway (section 3.5).  ``addresses``
        overrides the profile order entirely — the gateway pool uses it
        to publish per-client IORs whose profiles walk the consistent-
        hash ring from the client's home gateway.
        """
        if addresses is None:
            addresses = self.gateway_addresses()
            if first_gateway_only:
                addresses = addresses[:1]
        return stitch_profiles(type_id, addresses,
                               make_object_key(self.domain.name, group_id))

    # ------------------------------------------------------------------
    # ORB-level interposition (the getsockname()/sysinfo() seam)
    # ------------------------------------------------------------------

    def interpose_orb(self, orb: Orb) -> None:
        """Override the ORB's address query so that any IOR it publishes
        carries the first gateway's address instead of its own.  Like
        the paper's ``getsockname()`` hook, it answers at each query: an
        IOR published after a gateway crash leads with a live one."""

        def published_address() -> Tuple[str, int]:
            return self.gateway_addresses()[0]

        orb.published_address = published_address  # type: ignore[method-assign]
