# reprolint: module=repro.eternal.fake
"""SIM002 good fixture: the same component hearing of departures from
the membership change its Replication Mechanisms deliver."""


class Reissuer:
    def __init__(self, rm):
        rm.on_membership_change(self.reissue)

    def reissue(self, live_hosts):
        return sorted(live_hosts)
