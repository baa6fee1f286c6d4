//! Reverse-DNS helpers (`in-addr.arpa`).

use crate::name::DnsName;
use crate::rr::{RData, Record};
use crate::zone::Zone;
use std::net::Ipv4Addr;

/// The `in-addr.arpa` name for an IPv4 address
/// (`190.210.1.5` → `5.1.210.190.in-addr.arpa`).
pub fn reverse_name(ip: Ipv4Addr) -> DnsName {
    let mut labels: Vec<Vec<u8>> =
        ip.octets().iter().rev().map(|o| o.to_string().into_bytes()).collect();
    labels.push(b"in-addr".to_vec());
    labels.push(b"arpa".to_vec());
    DnsName::from_valid_labels(labels)
}

/// Build a PTR record mapping `ip` to `target`.
pub fn ptr_record(ip: Ipv4Addr, target: DnsName, ttl: u32) -> Record {
    Record::new(reverse_name(ip), ttl, RData::Ptr(target))
}

/// Build a whole `in-addr.arpa` zone from `(ip, ptr-name)` pairs. Pairs
/// whose PTR name fails to parse are skipped (mirrors real-world reverse
/// zones, which are full of junk).
pub fn build_reverse_zone<'a>(
    entries: impl IntoIterator<Item = (Ipv4Addr, &'a str)>,
) -> Zone {
    let origin: DnsName = "in-addr.arpa".parse().expect("static name");
    let mut zone = Zone::new(origin);
    for (ip, target) in entries {
        if let Ok(name) = target.parse::<DnsName>() {
            zone.add(reverse_name(ip), RData::Ptr(name));
        }
    }
    zone
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rr::RecordType;
    use crate::zone::ZoneAnswer;

    #[test]
    fn reverse_name_layout() {
        let n = reverse_name("179.27.169.201".parse().unwrap());
        assert_eq!(n.to_string(), "201.169.27.179.in-addr.arpa");
    }

    #[test]
    fn ptr_record_points_to_target() {
        let rec = ptr_record(
            "203.0.113.7".parse().unwrap(),
            "edge7.fra.example.net".parse().unwrap(),
            300,
        );
        assert_eq!(rec.record_type(), RecordType::Ptr);
        assert_eq!(rec.name.to_string(), "7.113.0.203.in-addr.arpa");
    }

    #[test]
    fn build_zone_and_lookup() {
        let zone = build_reverse_zone([
            ("198.51.100.1".parse().unwrap(), "r1.lhr.example.net"),
            ("198.51.100.2".parse().unwrap(), "r2.cdg.example.net"),
        ]);
        assert_eq!(zone.name_count(), 2);
        let q = reverse_name("198.51.100.2".parse().unwrap());
        match zone.lookup(&q, RecordType::Ptr, None) {
            ZoneAnswer::Records(rs) => match &rs[0].rdata {
                RData::Ptr(t) => assert_eq!(t.to_string(), "r2.cdg.example.net"),
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn junk_ptr_targets_are_skipped() {
        let zone = build_reverse_zone([
            ("198.51.100.1".parse().unwrap(), "ok.example.net"),
            ("198.51.100.2".parse().unwrap(), "bad..name"),
        ]);
        assert_eq!(zone.name_count(), 1);
    }
}
