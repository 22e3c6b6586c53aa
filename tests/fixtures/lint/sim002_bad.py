# reprolint: module=repro.eternal.fake
"""SIM002 bad fixture: a protocol component acting on the simulator's
record of a crash and a recovery."""


class Reissuer:
    def __init__(self, host, network):
        host.on_crash(self.reissue)
        network.on_host_crash(self.reissue)
        network.on_host_recovery(self.reissue)

    def reissue(self, host):
        return host.name
