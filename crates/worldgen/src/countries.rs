//! The study's country sample: the paper's Tables 8 and 9 embedded as
//! static data, extended with the geographic coordinates and development
//! indices the substrate and the App. E regression need.
//!
//! `landing`, `internal` and `hostnames` are the real per-country dataset
//! volumes from Table 8; EGDI/HDI/IUI/population share and the VPN
//! provider are from Table 9. IDI / economic-freedom / GDP-per-capita /
//! NRI values are public 2023 figures (approximate), used only as App. E
//! regression features. Coordinates are each country's capital plus a far
//! city — the basis for the per-country road-distance latency thresholds
//! (§3.5) and for placing servers and probes.

use govhost_netsim::coords::{City, GeoPoint};
use govhost_types::{CountryCode, Region};
use govhost_web::vantage::VpnProvider;

/// Static per-country data.
#[derive(Debug, Clone, Copy)]
pub struct CountryRow {
    /// ISO alpha-2 code.
    pub code: &'static str,
    /// Display name.
    pub name: &'static str,
    /// World Bank region.
    pub region: Region,
    /// E-Government Development Index (Table 9).
    pub egdi: f64,
    /// Human Development Index (Table 9).
    pub hdi: f64,
    /// Internet-penetration rate, percent (Table 9).
    pub iui: f64,
    /// Share of the world's Internet population, percent (Table 9).
    pub pop_share: f64,
    /// VPN service used for this country (Table 9).
    pub vpn: VpnProvider,
    /// Landing URLs collected (Table 8).
    pub landing: u32,
    /// Internal URLs collected (Table 8).
    pub internal: u32,
    /// Unique government hostnames (Table 8).
    pub hostnames: u32,
    /// Capital (name, lat, lon).
    pub capital: (&'static str, f64, f64),
    /// A far city (name, lat, lon) — the other end of the country's
    /// intercity-distance threshold.
    pub far_city: (&'static str, f64, f64),
    /// ICT Development Index (~0..10).
    pub idi: f64,
    /// Heritage Economic Freedom Index (~0..100).
    pub efi: f64,
    /// GDP per capita, thousands of USD.
    pub gdp_k: f64,
    /// Network Readiness Index (~0..100).
    pub nri: f64,
}

impl CountryRow {
    /// Country code as a typed value.
    pub fn cc(&self) -> CountryCode {
        CountryCode::literal(self.code)
    }

    /// Capital as a [`City`].
    pub fn capital_city(&self) -> City {
        City::new(self.capital.0, self.cc(), self.capital.1, self.capital.2)
    }

    /// Far city as a [`City`].
    pub fn far_city_city(&self) -> City {
        City::new(self.far_city.0, self.cc(), self.far_city.1, self.far_city.2)
    }

    /// Great-circle distance between the two reference cities, km.
    pub fn intercity_km(&self) -> f64 {
        GeoPoint::new(self.capital.1, self.capital.2)
            .distance_km(&GeoPoint::new(self.far_city.1, self.far_city.2))
    }

    /// Absolute Internet users, millions (share of a ~5.3B-user world).
    pub fn internet_users_m(&self) -> f64 {
        self.pop_share * 53.0
    }
}

use Region::*;
use VpnProvider::{HotspotShield as HS, Nord, Surfshark as Surf};

/// The 61 studied countries (Tables 8 & 9).
pub const COUNTRIES: &[CountryRow] = &[
    // ---- North America ----
    CountryRow { code: "US", name: "United States", region: NorthAmerica, egdi: 0.915, hdi: 0.921, iui: 92.0, pop_share: 5.760, vpn: Nord, landing: 1340, internal: 38702, hostnames: 2343, capital: ("Washington", 38.90, -77.04), far_city: ("Los Angeles", 34.05, -118.24), idi: 8.67, efi: 78.74, gdp_k: 76.3, nri: 82.22 },
    CountryRow { code: "CA", name: "Canada", region: NorthAmerica, egdi: 0.851, hdi: 0.936, iui: 93.0, pop_share: 0.685, vpn: Nord, landing: 216, internal: 6626, hostnames: 127, capital: ("Ottawa", 45.42, -75.70), far_city: ("Vancouver", 49.28, -123.12), idi: 9.49, efi: 66.18, gdp_k: 55.0, nri: 75.22 },
    // ---- Latin America and the Caribbean ----
    CountryRow { code: "BR", name: "Brazil", region: LatinAmericaCaribbean, egdi: 0.791, hdi: 0.754, iui: 81.0, pop_share: 3.285, vpn: Nord, landing: 272, internal: 15711, hostnames: 212, capital: ("Brasilia", -15.79, -47.88), far_city: ("Manaus", -3.12, -60.02), idi: 5.33, efi: 54.22, gdp_k: 8.9, nri: 61.69 },
    CountryRow { code: "MX", name: "Mexico", region: LatinAmericaCaribbean, egdi: 0.747, hdi: 0.758, iui: 76.0, pop_share: 2.036, vpn: Nord, landing: 317, internal: 9418, hostnames: 140, capital: ("Mexico City", 19.43, -99.13), far_city: ("Tijuana", 32.51, -117.04), idi: 4.56, efi: 59.50, gdp_k: 11.5, nri: 45.73 },
    CountryRow { code: "AR", name: "Argentina", region: LatinAmericaCaribbean, egdi: 0.820, hdi: 0.842, iui: 88.0, pop_share: 0.775, vpn: Nord, landing: 201, internal: 6238, hostnames: 100, capital: ("Buenos Aires", -34.60, -58.38), far_city: ("Ushuaia", -54.80, -68.30), idi: 7.29, efi: 47.98, gdp_k: 13.7, nri: 59.47 },
    CountryRow { code: "CL", name: "Chile", region: LatinAmericaCaribbean, egdi: 0.838, hdi: 0.855, iui: 90.0, pop_share: 0.347, vpn: Nord, landing: 448, internal: 24571, hostnames: 434, capital: ("Santiago", -33.45, -70.67), far_city: ("Punta Arenas", -53.16, -70.91), idi: 7.68, efi: 62.81, gdp_k: 15.4, nri: 61.53 },
    CountryRow { code: "BO", name: "Bolivia", region: LatinAmericaCaribbean, egdi: 0.617, hdi: 0.692, iui: 66.0, pop_share: 0.164, vpn: Surf, landing: 194, internal: 12842, hostnames: 189, capital: ("La Paz", -16.50, -68.15), far_city: ("Santa Cruz", -17.78, -63.18), idi: 3.57, efi: 45.99, gdp_k: 3.6, nri: 40.46 },
    CountryRow { code: "PY", name: "Paraguay", region: LatinAmericaCaribbean, egdi: 0.633, hdi: 0.717, iui: 76.0, pop_share: 0.1139, vpn: Surf, landing: 146, internal: 6744, hostnames: 133, capital: ("Asuncion", -25.26, -57.58), far_city: ("Ciudad del Este", -25.51, -54.61), idi: 3.76, efi: 60.22, gdp_k: 6.2, nri: 50.41 },
    CountryRow { code: "CR", name: "Costa Rica", region: LatinAmericaCaribbean, egdi: 0.766, hdi: 0.809, iui: 83.0, pop_share: 0.082, vpn: Nord, landing: 196, internal: 12231, hostnames: 176, capital: ("San Jose", 9.93, -84.08), far_city: ("Liberia", 10.63, -85.44), idi: 5.72, efi: 64.48, gdp_k: 13.2, nri: 48.99 },
    CountryRow { code: "UY", name: "Uruguay", region: LatinAmericaCaribbean, egdi: 0.839, hdi: 0.809, iui: 90.0, pop_share: 0.0602, vpn: Surf, landing: 67, internal: 4322, hostnames: 27, capital: ("Montevideo", -34.90, -56.16), far_city: ("Salto", -31.38, -57.97), idi: 7.63, efi: 70.48, gdp_k: 20.8, nri: 57.76 },
    // ---- Europe and Central Asia ----
    CountryRow { code: "RU", name: "Russia", region: EuropeCentralAsia, egdi: 0.816, hdi: 0.822, iui: 90.0, pop_share: 2.299, vpn: HS, landing: 106, internal: 5813, hostnames: 46, capital: ("Moscow", 55.76, 37.62), far_city: ("Vladivostok", 43.12, 131.89), idi: 5.87, efi: 53.09, gdp_k: 15.3, nri: 63.44 },
    CountryRow { code: "DE", name: "Germany", region: EuropeCentralAsia, egdi: 0.877, hdi: 0.942, iui: 92.0, pop_share: 1.459, vpn: Nord, landing: 777, internal: 28841, hostnames: 451, capital: ("Berlin", 52.52, 13.40), far_city: ("Munich", 48.14, 11.58), idi: 9.42, efi: 65.87, gdp_k: 48.7, nri: 84.28 },
    CountryRow { code: "TR", name: "Turkey", region: EuropeCentralAsia, egdi: 0.798, hdi: 0.838, iui: 83.0, pop_share: 1.3371, vpn: Nord, landing: 226, internal: 14817, hostnames: 228, capital: ("Ankara", 39.93, 32.86), far_city: ("Izmir", 38.42, 27.14), idi: 6.50, efi: 63.64, gdp_k: 10.6, nri: 59.84 },
    CountryRow { code: "GB", name: "United Kingdom", region: EuropeCentralAsia, egdi: 0.914, hdi: 0.929, iui: 97.0, pop_share: 1.200, vpn: Nord, landing: 373, internal: 9005, hostnames: 320, capital: ("London", 51.51, -0.13), far_city: ("Glasgow", 55.86, -4.25), idi: 8.24, efi: 71.83, gdp_k: 45.9, nri: 71.22 },
    CountryRow { code: "FR", name: "France", region: EuropeCentralAsia, egdi: 0.883, hdi: 0.903, iui: 85.0, pop_share: 1.114, vpn: Nord, landing: 669, internal: 9705, hostnames: 238, capital: ("Paris", 48.86, 2.35), far_city: ("Marseille", 43.30, 5.37), idi: 9.82, efi: 62.54, gdp_k: 40.9, nri: 87.82 },
    CountryRow { code: "IT", name: "Italy", region: EuropeCentralAsia, egdi: 0.838, hdi: 0.895, iui: 85.0, pop_share: 1.011, vpn: Nord, landing: 129, internal: 8518, hostnames: 123, capital: ("Rome", 41.90, 12.50), far_city: ("Milan", 45.46, 9.19), idi: 6.76, efi: 67.75, gdp_k: 34.2, nri: 66.87 },
    CountryRow { code: "ES", name: "Spain", region: EuropeCentralAsia, egdi: 0.884, hdi: 0.905, iui: 94.0, pop_share: 0.802, vpn: Nord, landing: 251, internal: 14602, hostnames: 175, capital: ("Madrid", 40.42, -3.70), far_city: ("Barcelona", 41.39, 2.17), idi: 9.66, efi: 59.36, gdp_k: 29.7, nri: 66.35 },
    CountryRow { code: "UA", name: "Ukraine", region: EuropeCentralAsia, egdi: 0.803, hdi: 0.773, iui: 79.0, pop_share: 0.7545, vpn: Nord, landing: 93, internal: 3928, hostnames: 98, capital: ("Kyiv", 50.45, 30.52), far_city: ("Lviv", 49.84, 24.03), idi: 4.49, efi: 46.94, gdp_k: 4.8, nri: 59.50 },
    CountryRow { code: "PL", name: "Poland", region: EuropeCentralAsia, egdi: 0.844, hdi: 0.876, iui: 87.0, pop_share: 0.640, vpn: Nord, landing: 594, internal: 29699, hostnames: 470, capital: ("Warsaw", 52.23, 21.01), far_city: ("Wroclaw", 51.11, 17.03), idi: 8.24, efi: 66.74, gdp_k: 18.0, nri: 65.05 },
    CountryRow { code: "KZ", name: "Kazakhstan", region: EuropeCentralAsia, egdi: 0.863, hdi: 0.811, iui: 92.0, pop_share: 0.304, vpn: Surf, landing: 52, internal: 648, hostnames: 16, capital: ("Astana", 51.17, 71.45), far_city: ("Almaty", 43.26, 76.93), idi: 7.33, efi: 63.85, gdp_k: 11.2, nri: 49.59 },
    CountryRow { code: "NL", name: "Netherlands", region: EuropeCentralAsia, egdi: 0.938, hdi: 0.941, iui: 93.0, pop_share: 0.302, vpn: Nord, landing: 1293, internal: 39026, hostnames: 966, capital: ("Amsterdam", 52.37, 4.90), far_city: ("Maastricht", 50.85, 5.69), idi: 8.73, efi: 84.49, gdp_k: 57.0, nri: 89.38 },
    CountryRow { code: "RO", name: "Romania", region: EuropeCentralAsia, egdi: 0.762, hdi: 0.821, iui: 86.0, pop_share: 0.2738, vpn: Nord, landing: 65, internal: 3427, hostnames: 49, capital: ("Bucharest", 44.43, 26.10), far_city: ("Cluj-Napoca", 46.77, 23.59), idi: 7.66, efi: 60.40, gdp_k: 15.8, nri: 66.65 },
    CountryRow { code: "BE", name: "Belgium", region: EuropeCentralAsia, egdi: 0.827, hdi: 0.937, iui: 94.0, pop_share: 0.198, vpn: Nord, landing: 994, internal: 217598, hostnames: 637, capital: ("Brussels", 50.85, 4.35), far_city: ("Antwerp", 51.22, 4.40), idi: 8.46, efi: 67.93, gdp_k: 49.9, nri: 87.75 },
    CountryRow { code: "SE", name: "Sweden", region: EuropeCentralAsia, egdi: 0.941, hdi: 0.947, iui: 95.0, pop_share: 0.183, vpn: Nord, landing: 335, internal: 9110, hostnames: 285, capital: ("Stockholm", 59.33, 18.07), far_city: ("Kiruna", 67.86, 20.23), idi: 8.32, efi: 80.13, gdp_k: 56.0, nri: 71.23 },
    CountryRow { code: "CZ", name: "Czechia", region: EuropeCentralAsia, egdi: 0.809, hdi: 0.889, iui: 85.0, pop_share: 0.1719, vpn: Nord, landing: 49, internal: 2153, hostnames: 46, capital: ("Prague", 50.08, 14.44), far_city: ("Ostrava", 49.82, 18.26), idi: 5.91, efi: 78.39, gdp_k: 26.8, nri: 77.18 },
    CountryRow { code: "PT", name: "Portugal", region: EuropeCentralAsia, egdi: 0.827, hdi: 0.866, iui: 84.0, pop_share: 0.165, vpn: Nord, landing: 295, internal: 15809, hostnames: 253, capital: ("Lisbon", 38.72, -9.14), far_city: ("Porto", 41.15, -8.61), idi: 7.30, efi: 75.80, gdp_k: 24.5, nri: 68.51 },
    CountryRow { code: "HU", name: "Hungary", region: EuropeCentralAsia, egdi: 0.783, hdi: 0.846, iui: 90.0, pop_share: 0.1584, vpn: Nord, landing: 109, internal: 204042, hostnames: 70, capital: ("Budapest", 47.50, 19.04), far_city: ("Debrecen", 47.53, 21.63), idi: 7.89, efi: 71.09, gdp_k: 18.1, nri: 52.66 },
    CountryRow { code: "CH", name: "Switzerland", region: EuropeCentralAsia, egdi: 0.875, hdi: 0.962, iui: 96.0, pop_share: 0.155, vpn: Nord, landing: 83, internal: 3225, hostnames: 25, capital: ("Bern", 46.95, 7.45), far_city: ("Geneva", 46.20, 6.14), idi: 8.40, efi: 82.01, gdp_k: 93.3, nri: 73.80 },
    CountryRow { code: "GR", name: "Greece", region: EuropeCentralAsia, egdi: 0.846, hdi: 0.887, iui: 83.0, pop_share: 0.150, vpn: Nord, landing: 91, internal: 6025, hostnames: 88, capital: ("Athens", 37.98, 23.73), far_city: ("Thessaloniki", 40.64, 22.94), idi: 7.51, efi: 62.80, gdp_k: 20.9, nri: 53.94 },
    CountryRow { code: "RS", name: "Serbia", region: EuropeCentralAsia, egdi: 0.824, hdi: 0.802, iui: 84.0, pop_share: 0.125, vpn: Nord, landing: 66, internal: 3295, hostnames: 67, capital: ("Belgrade", 44.79, 20.45), far_city: ("Nis", 43.32, 21.90), idi: 6.12, efi: 68.35, gdp_k: 9.2, nri: 44.70 },
    CountryRow { code: "DK", name: "Denmark", region: EuropeCentralAsia, egdi: 0.972, hdi: 0.948, iui: 98.0, pop_share: 0.105, vpn: Nord, landing: 110, internal: 2922, hostnames: 110, capital: ("Copenhagen", 55.68, 12.57), far_city: ("Aalborg", 57.05, 9.92), idi: 8.99, efi: 71.97, gdp_k: 67.8, nri: 92.17 },
    CountryRow { code: "NO", name: "Norway", region: EuropeCentralAsia, egdi: 0.888, hdi: 0.961, iui: 99.0, pop_share: 0.099, vpn: Nord, landing: 162, internal: 4382, hostnames: 158, capital: ("Oslo", 59.91, 10.75), far_city: ("Tromso", 69.65, 18.96), idi: 10.00, efi: 83.09, gdp_k: 106.1, nri: 74.74 },
    CountryRow { code: "BG", name: "Bulgaria", region: EuropeCentralAsia, egdi: 0.777, hdi: 0.795, iui: 79.0, pop_share: 0.0886, vpn: Nord, landing: 144, internal: 5798, hostnames: 75, capital: ("Sofia", 42.70, 23.32), far_city: ("Varna", 43.21, 27.92), idi: 6.54, efi: 75.71, gdp_k: 13.4, nri: 63.43 },
    CountryRow { code: "GE", name: "Georgia", region: EuropeCentralAsia, egdi: 0.750, hdi: 0.802, iui: 79.0, pop_share: 0.0669, vpn: Nord, landing: 73, internal: 2226, hostnames: 61, capital: ("Tbilisi", 41.72, 44.78), far_city: ("Batumi", 41.65, 41.64), idi: 6.01, efi: 67.05, gdp_k: 6.7, nri: 56.28 },
    CountryRow { code: "MD", name: "Moldova", region: EuropeCentralAsia, egdi: 0.725, hdi: 0.767, iui: 60.0, pop_share: 0.0566, vpn: Nord, landing: 50, internal: 3464, hostnames: 24, capital: ("Chisinau", 47.01, 28.86), far_city: ("Balti", 47.76, 27.93), idi: 6.64, efi: 68.36, gdp_k: 5.7, nri: 50.54 },
    CountryRow { code: "BA", name: "Bosnia", region: EuropeCentralAsia, egdi: 0.626, hdi: 0.780, iui: 79.0, pop_share: 0.0522, vpn: Nord, landing: 59, internal: 2929, hostnames: 58, capital: ("Sarajevo", 43.86, 18.41), far_city: ("Banja Luka", 44.77, 17.19), idi: 5.65, efi: 58.21, gdp_k: 7.6, nri: 50.21 },
    CountryRow { code: "AL", name: "Albania", region: EuropeCentralAsia, egdi: 0.741, hdi: 0.796, iui: 83.0, pop_share: 0.0404, vpn: Nord, landing: 80, internal: 5536, hostnames: 79, capital: ("Tirana", 41.33, 19.82), far_city: ("Vlore", 40.47, 19.49), idi: 6.10, efi: 70.53, gdp_k: 6.8, nri: 52.15 },
    CountryRow { code: "LV", name: "Latvia", region: EuropeCentralAsia, egdi: 0.860, hdi: 0.863, iui: 91.0, pop_share: 0.031, vpn: Nord, landing: 291, internal: 13263, hostnames: 239, capital: ("Riga", 56.95, 24.11), far_city: ("Daugavpils", 55.87, 26.54), idi: 8.55, efi: 69.27, gdp_k: 21.9, nri: 63.29 },
    CountryRow { code: "EE", name: "Estonia", region: EuropeCentralAsia, egdi: 0.939, hdi: 0.890, iui: 91.0, pop_share: 0.024, vpn: Nord, landing: 118, internal: 9871, hostnames: 119, capital: ("Tallinn", 59.44, 24.75), far_city: ("Tartu", 58.38, 26.73), idi: 6.62, efi: 87.66, gdp_k: 28.2, nri: 67.67 },
    // ---- East Asia and Pacific ----
    CountryRow { code: "CN", name: "China", region: EastAsiaPacific, egdi: 0.812, hdi: 0.768, iui: 76.0, pop_share: 18.6404, vpn: HS, landing: 193, internal: 6195, hostnames: 190, capital: ("Beijing", 39.90, 116.41), far_city: ("Urumqi", 43.83, 87.62), idi: 6.72, efi: 46.24, gdp_k: 12.7, nri: 73.76 },
    CountryRow { code: "ID", name: "Indonesia", region: EastAsiaPacific, egdi: 0.716, hdi: 0.705, iui: 66.0, pop_share: 3.9163, vpn: Nord, landing: 76, internal: 3690, hostnames: 79, capital: ("Jakarta", -6.21, 106.85), far_city: ("Jayapura", -2.53, 140.72), idi: 3.39, efi: 65.72, gdp_k: 4.8, nri: 50.82 },
    CountryRow { code: "JP", name: "Japan", region: EastAsiaPacific, egdi: 0.900, hdi: 0.925, iui: 83.0, pop_share: 2.1878, vpn: Nord, landing: 93, internal: 3635, hostnames: 75, capital: ("Tokyo", 35.68, 139.69), far_city: ("Sapporo", 43.06, 141.35), idi: 9.56, efi: 71.11, gdp_k: 33.8, nri: 84.14 },
    CountryRow { code: "VN", name: "Vietnam", region: EastAsiaPacific, egdi: 0.679, hdi: 0.703, iui: 79.0, pop_share: 1.5661, vpn: Nord, landing: 56, internal: 1642, hostnames: 54, capital: ("Hanoi", 21.03, 105.85), far_city: ("Ho Chi Minh City", 10.82, 106.63), idi: 3.54, efi: 63.38, gdp_k: 4.3, nri: 61.70 },
    CountryRow { code: "TH", name: "Thailand", region: EastAsiaPacific, egdi: 0.766, hdi: 0.800, iui: 88.0, pop_share: 1.1416, vpn: Nord, landing: 81, internal: 3267, hostnames: 82, capital: ("Bangkok", 13.76, 100.50), far_city: ("Chiang Mai", 18.79, 98.98), idi: 4.56, efi: 62.49, gdp_k: 7.1, nri: 64.46 },
    CountryRow { code: "KR", name: "South Korea", region: EastAsiaPacific, egdi: 0.953, hdi: 0.925, iui: 97.0, pop_share: 0.9184, vpn: Nord, landing: 0, internal: 0, hostnames: 0, capital: ("Seoul", 37.57, 126.98), far_city: ("Busan", 35.18, 129.08), idi: 10.00, efi: 81.01, gdp_k: 32.4, nri: 66.36 },
    CountryRow { code: "MY", name: "Malaysia", region: EastAsiaPacific, egdi: 0.774, hdi: 0.803, iui: 97.0, pop_share: 0.5715, vpn: Nord, landing: 261, internal: 20206, hostnames: 247, capital: ("Kuala Lumpur", 3.139, 101.69), far_city: ("Kota Kinabalu", 5.98, 116.07), idi: 5.70, efi: 72.78, gdp_k: 11.7, nri: 69.22 },
    CountryRow { code: "AU", name: "Australia", region: EastAsiaPacific, egdi: 0.941, hdi: 0.951, iui: 96.0, pop_share: 0.4314, vpn: Nord, landing: 708, internal: 6883, hostnames: 440, capital: ("Canberra", -35.28, 149.13), far_city: ("Perth", -31.95, 115.86), idi: 8.18, efi: 76.83, gdp_k: 64.5, nri: 63.29 },
    CountryRow { code: "TW", name: "Taiwan", region: EastAsiaPacific, egdi: 0.850, hdi: 0.920, iui: 92.0, pop_share: 0.4175, vpn: Nord, landing: 58, internal: 2996, hostnames: 54, capital: ("Taipei", 25.03, 121.57), far_city: ("Kaohsiung", 22.63, 120.30), idi: 6.23, efi: 84.92, gdp_k: 32.7, nri: 81.07 },
    CountryRow { code: "HK", name: "Hong Kong", region: EastAsiaPacific, egdi: 0.900, hdi: 0.952, iui: 96.0, pop_share: 0.1234, vpn: Nord, landing: 108, internal: 6857, hostnames: 92, capital: ("Hong Kong", 22.32, 114.17), far_city: ("Tuen Mun", 22.39, 113.97), idi: 8.65, efi: 79.15, gdp_k: 49.2, nri: 72.87 },
    CountryRow { code: "SG", name: "Singapore", region: EastAsiaPacific, egdi: 0.913, hdi: 0.939, iui: 96.0, pop_share: 0.1005, vpn: Nord, landing: 87, internal: 4368, hostnames: 90, capital: ("Singapore", 1.35, 103.82), far_city: ("Jurong", 1.33, 103.74), idi: 7.66, efi: 76.95, gdp_k: 82.8, nri: 90.25 },
    CountryRow { code: "NZ", name: "New Zealand", region: EastAsiaPacific, egdi: 0.943, hdi: 0.937, iui: 96.0, pop_share: 0.0841, vpn: Nord, landing: 251, internal: 7358, hostnames: 233, capital: ("Wellington", -41.29, 174.78), far_city: ("Auckland", -36.85, 174.76), idi: 7.22, efi: 88.04, gdp_k: 48.8, nri: 71.38 },
    // ---- South Asia ----
    CountryRow { code: "IN", name: "India", region: SouthAsia, egdi: 0.588, hdi: 0.633, iui: 46.0, pop_share: 15.376, vpn: Nord, landing: 207, internal: 13612, hostnames: 213, capital: ("New Delhi", 28.61, 77.21), far_city: ("Chennai", 13.08, 80.27), idi: 3.64, efi: 46.92, gdp_k: 2.4, nri: 49.63 },
    CountryRow { code: "BD", name: "Bangladesh", region: SouthAsia, egdi: 0.563, hdi: 0.661, iui: 39.0, pop_share: 2.3824, vpn: Surf, landing: 333, internal: 15757, hostnames: 329, capital: ("Dhaka", 23.81, 90.41), far_city: ("Chittagong", 22.36, 91.79), idi: 1.96, efi: 56.09, gdp_k: 2.7, nri: 48.72 },
    CountryRow { code: "PK", name: "Pakistan", region: SouthAsia, egdi: 0.424, hdi: 0.544, iui: 21.0, pop_share: 2.1393, vpn: Surf, landing: 118, internal: 3133, hostnames: 108, capital: ("Islamabad", 33.68, 73.05), far_city: ("Karachi", 24.86, 67.01), idi: 2.53, efi: 50.01, gdp_k: 1.6, nri: 42.69 },
    // ---- Middle East and North Africa ----
    CountryRow { code: "EG", name: "Egypt", region: MiddleEastNorthAfrica, egdi: 0.590, hdi: 0.731, iui: 72.0, pop_share: 1.0096, vpn: Surf, landing: 69, internal: 4683, hostnames: 66, capital: ("Cairo", 30.04, 31.24), far_city: ("Aswan", 24.09, 32.90), idi: 4.23, efi: 43.73, gdp_k: 4.3, nri: 41.35 },
    CountryRow { code: "DZ", name: "Algeria", region: MiddleEastNorthAfrica, egdi: 0.561, hdi: 0.745, iui: 71.0, pop_share: 0.698, vpn: Surf, landing: 202, internal: 2231, hostnames: 184, capital: ("Algiers", 36.74, 3.09), far_city: ("Tamanrasset", 22.79, 5.53), idi: 3.93, efi: 38.97, gdp_k: 4.3, nri: 46.12 },
    CountryRow { code: "MA", name: "Morocco", region: MiddleEastNorthAfrica, egdi: 0.592, hdi: 0.683, iui: 88.0, pop_share: 0.4719, vpn: Surf, landing: 144, internal: 8440, hostnames: 137, capital: ("Rabat", 34.02, -6.84), far_city: ("Agadir", 30.42, -9.60), idi: 4.24, efi: 62.31, gdp_k: 3.7, nri: 43.00 },
    CountryRow { code: "AE", name: "United Arab Emirates", region: MiddleEastNorthAfrica, egdi: 0.901, hdi: 0.911, iui: 100.0, pop_share: 0.2246, vpn: Nord, landing: 49, internal: 5277, hostnames: 50, capital: ("Abu Dhabi", 24.45, 54.38), far_city: ("Dubai", 25.20, 55.27), idi: 9.66, efi: 75.51, gdp_k: 49.0, nri: 74.79 },
    CountryRow { code: "IL", name: "Israel", region: MiddleEastNorthAfrica, egdi: 0.889, hdi: 0.919, iui: 90.0, pop_share: 0.1474, vpn: Nord, landing: 101, internal: 2994, hostnames: 98, capital: ("Jerusalem", 31.77, 35.22), far_city: ("Eilat", 29.56, 34.95), idi: 8.70, efi: 62.75, gdp_k: 54.7, nri: 75.15 },
    // ---- Sub-Saharan Africa ----
    CountryRow { code: "NG", name: "Nigeria", region: SubSaharanAfrica, egdi: 0.453, hdi: 0.535, iui: 55.0, pop_share: 2.846, vpn: Surf, landing: 189, internal: 11332, hostnames: 187, capital: ("Abuja", 9.06, 7.50), far_city: ("Lagos", 6.52, 3.38), idi: 2.83, efi: 48.37, gdp_k: 2.2, nri: 43.92 },
    CountryRow { code: "ZA", name: "South Africa", region: SubSaharanAfrica, egdi: 0.736, hdi: 0.713, iui: 72.0, pop_share: 0.6371, vpn: Nord, landing: 189, internal: 11332, hostnames: 187, capital: ("Pretoria", -25.75, 28.19), far_city: ("Cape Town", -33.92, 18.42), idi: 4.04, efi: 58.10, gdp_k: 6.8, nri: 53.16 },
];

/// Countries and territories that appear only as *hosting destinations* or
/// provider registration homes, never as studied governments. Together
/// with the 61 studied countries these cover the paper's "68 countries
/// with servers located" (Table 3). `landing/internal/hostnames` are zero;
/// indices are placeholders (never used for host-only rows).
pub const HOST_ONLY_COUNTRIES: &[CountryRow] = &[
    CountryRow { code: "NC", name: "New Caledonia", region: EastAsiaPacific, egdi: 0.0, hdi: 0.0, iui: 0.0, pop_share: 0.0, vpn: Nord, landing: 0, internal: 0, hostnames: 0, capital: ("Noumea", -22.27, 166.44), far_city: ("Kone", -21.06, 164.86), idi: 0.0, efi: 0.0, gdp_k: 0.0, nri: 0.0 },
    CountryRow { code: "AT", name: "Austria", region: EuropeCentralAsia, egdi: 0.0, hdi: 0.0, iui: 0.0, pop_share: 0.0, vpn: Nord, landing: 0, internal: 0, hostnames: 0, capital: ("Vienna", 48.21, 16.37), far_city: ("Innsbruck", 47.27, 11.40), idi: 0.0, efi: 0.0, gdp_k: 0.0, nri: 0.0 },
    CountryRow { code: "SK", name: "Slovakia", region: EuropeCentralAsia, egdi: 0.0, hdi: 0.0, iui: 0.0, pop_share: 0.0, vpn: Nord, landing: 0, internal: 0, hostnames: 0, capital: ("Bratislava", 48.15, 17.11), far_city: ("Kosice", 48.72, 21.26), idi: 0.0, efi: 0.0, gdp_k: 0.0, nri: 0.0 },
    CountryRow { code: "IE", name: "Ireland", region: EuropeCentralAsia, egdi: 0.0, hdi: 0.0, iui: 0.0, pop_share: 0.0, vpn: Nord, landing: 0, internal: 0, hostnames: 0, capital: ("Dublin", 53.35, -6.26), far_city: ("Cork", 51.90, -8.47), idi: 0.0, efi: 0.0, gdp_k: 0.0, nri: 0.0 },
    CountryRow { code: "FI", name: "Finland", region: EuropeCentralAsia, egdi: 0.0, hdi: 0.0, iui: 0.0, pop_share: 0.0, vpn: Nord, landing: 0, internal: 0, hostnames: 0, capital: ("Helsinki", 60.17, 24.94), far_city: ("Oulu", 65.01, 25.47), idi: 0.0, efi: 0.0, gdp_k: 0.0, nri: 0.0 },
    CountryRow { code: "LU", name: "Luxembourg", region: EuropeCentralAsia, egdi: 0.0, hdi: 0.0, iui: 0.0, pop_share: 0.0, vpn: Nord, landing: 0, internal: 0, hostnames: 0, capital: ("Luxembourg", 49.61, 6.13), far_city: ("Esch", 49.50, 5.98), idi: 0.0, efi: 0.0, gdp_k: 0.0, nri: 0.0 },
    CountryRow { code: "CO", name: "Colombia", region: LatinAmericaCaribbean, egdi: 0.0, hdi: 0.0, iui: 0.0, pop_share: 0.0, vpn: Nord, landing: 0, internal: 0, hostnames: 0, capital: ("Bogota", 4.71, -74.07), far_city: ("Barranquilla", 10.96, -74.80), idi: 0.0, efi: 0.0, gdp_k: 0.0, nri: 0.0 },
    CountryRow { code: "NP", name: "Nepal", region: SouthAsia, egdi: 0.0, hdi: 0.0, iui: 0.0, pop_share: 0.0, vpn: Nord, landing: 0, internal: 0, hostnames: 0, capital: ("Kathmandu", 27.72, 85.32), far_city: ("Pokhara", 28.21, 83.99), idi: 0.0, efi: 0.0, gdp_k: 0.0, nri: 0.0 },
];

/// Slot of a country code in a 26×26 lookup table.
const fn slot(code: CountryCode) -> usize {
    let [a, b] = *code.as_bytes();
    (a - b'A') as usize * 26 + (b - b'A') as usize
}

/// Build the code → row table over `studied` followed by `host_only`.
/// A slot holds `0` for no row, or `i + 1` for row `i` of the
/// concatenation. The first row to claim a slot keeps it, so studied
/// rows win over host-only ones and earlier rows over later ones — the
/// precedence of a linear `find` over both tables.
const fn build_index(studied: &[CountryRow], host_only: &[CountryRow]) -> [u8; 26 * 26] {
    assert!(studied.len() + host_only.len() < u8::MAX as usize);
    let mut index = [0u8; 26 * 26];
    let mut i = 0;
    while i < studied.len() + host_only.len() {
        let row = if i < studied.len() { &studied[i] } else { &host_only[i - studied.len()] };
        let s = slot(CountryCode::literal(row.code));
        if index[s] == 0 {
            index[s] = i as u8 + 1;
        }
        i += 1;
    }
    index
}

/// [`COUNTRIES`] then [`HOST_ONLY_COUNTRIES`], indexed by code.
const INDEX: [u8; 26 * 26] = build_index(COUNTRIES, HOST_ONLY_COUNTRIES);

/// [`EU_MEMBERS`], indexed by code.
const EU_INDEX: [bool; 26 * 26] = {
    let mut index = [false; 26 * 26];
    let mut i = 0;
    while i < EU_MEMBERS.len() {
        index[slot(CountryCode::literal(EU_MEMBERS[i]))] = true;
        i += 1;
    }
    index
};

/// Find a studied country by code.
pub fn country(code: CountryCode) -> Option<&'static CountryRow> {
    match INDEX[slot(code)] as usize {
        0 => None,
        i => COUNTRIES.get(i - 1),
    }
}

/// Find any country (studied or host-only) by code.
pub fn any_country(code: CountryCode) -> Option<&'static CountryRow> {
    match INDEX[slot(code)] as usize {
        0 => None,
        i if i <= COUNTRIES.len() => Some(&COUNTRIES[i - 1]),
        i => Some(&HOST_ONLY_COUNTRIES[i - 1 - COUNTRIES.len()]),
    }
}

/// The World Bank region of any country (studied or host-only), by code.
// Inline across crates: analyses and serve queries call it per host or
// per row, and without the attribute the compiler inlines only leaf
// functions such as `any_country` across crates.
#[inline]
pub fn region_of(code: CountryCode) -> Option<Region> {
    any_country(code).map(|row| row.region)
}

/// EU member states within the sample (for the GDPR-compliance analysis,
/// §6.3). Non-sampled EU members are not listed because no URLs originate
/// there.
pub const EU_MEMBERS: &[&str] = &[
    "DE", "FR", "IT", "ES", "NL", "PL", "SE", "BE", "GR", "CZ", "RO", "HU", "PT", "BG", "LV",
    "EE", "DK", "AT", "SK", "IE", "FI", "LU",
];

/// Whether a country is an EU member (within the modelled set).
pub fn is_eu(code: CountryCode) -> bool {
    EU_INDEX[slot(code)]
}

/// The 14 countries of the governments-vs-topsites comparison (Table 6).
pub const TOPSITE_COUNTRIES: &[&str] =
    &["CA", "US", "MX", "BR", "FR", "BA", "AE", "IL", "ZA", "EG", "IN", "PK", "JP", "NZ"];

#[cfg(test)]
mod tests {
    use super::*;
    use govhost_types::cc;

    #[test]
    fn sixty_one_countries_in_seven_regions() {
        assert_eq!(COUNTRIES.len(), 61);
        let count = |r: Region| COUNTRIES.iter().filter(|c| c.region == r).count();
        assert_eq!(count(Region::NorthAmerica), 2);
        assert_eq!(count(Region::LatinAmericaCaribbean), 8);
        assert_eq!(count(Region::EuropeCentralAsia), 29);
        assert_eq!(count(Region::MiddleEastNorthAfrica), 5);
        assert_eq!(count(Region::SubSaharanAfrica), 2);
        assert_eq!(count(Region::SouthAsia), 3);
        assert_eq!(count(Region::EastAsiaPacific), 12);
    }

    #[test]
    fn codes_are_unique_and_valid() {
        let mut seen = std::collections::HashSet::new();
        for c in COUNTRIES.iter().chain(HOST_ONLY_COUNTRIES) {
            assert!(seen.insert(c.cc()), "duplicate code {}", c.code);
        }
    }

    /// The linear-scan definitions the slot table replaces, kept as the
    /// oracle it must agree with.
    mod scan {
        use super::*;

        pub fn country(code: CountryCode) -> Option<&'static CountryRow> {
            COUNTRIES.iter().find(|c| c.code.parse::<CountryCode>().unwrap() == code)
        }

        pub fn any_country(code: CountryCode) -> Option<&'static CountryRow> {
            country(code).or_else(|| {
                HOST_ONLY_COUNTRIES.iter().find(|c| c.code.parse::<CountryCode>().unwrap() == code)
            })
        }

        pub fn is_eu(code: CountryCode) -> bool {
            EU_MEMBERS.iter().any(|m| m.parse::<CountryCode>().unwrap() == code)
        }
    }

    fn all_codes() -> impl Iterator<Item = CountryCode> {
        (b'A'..=b'Z').flat_map(|a| (b'A'..=b'Z').map(move |b| CountryCode::new(a, b).unwrap()))
    }

    #[test]
    fn index_agrees_with_linear_scan_on_every_code() {
        // `COUNTRIES` is a `const`, so rows are compared by content, not
        // by address.
        let same = |a: Option<&CountryRow>, b: Option<&CountryRow>| {
            a.map(|r| format!("{r:?}")) == b.map(|r| format!("{r:?}"))
        };
        let mut found = 0;
        for code in all_codes() {
            assert!(same(country(code), scan::country(code)), "country({code})");
            assert!(same(any_country(code), scan::any_country(code)), "any_country({code})");
            assert_eq!(is_eu(code), scan::is_eu(code), "is_eu({code})");
            found += usize::from(any_country(code).is_some());
        }
        assert_eq!(all_codes().count(), 676);
        assert_eq!(found, COUNTRIES.len() + HOST_ONLY_COUNTRIES.len());
    }

    #[test]
    fn index_keeps_first_match_precedence() {
        // A code in both tables resolves to the studied row, and a code
        // repeated within a table to its first row.
        let studied = [
            CountryRow { code: "NC", ..COUNTRIES[0] },
            CountryRow { code: "NC", ..COUNTRIES[1] },
        ];
        let host_only = [HOST_ONLY_COUNTRIES[0], HOST_ONLY_COUNTRIES[1], HOST_ONLY_COUNTRIES[1]];
        let index = build_index(&studied, &host_only);
        assert_eq!(index[slot(cc!("NC"))], 1, "studied row 0 wins");
        assert_eq!(index[slot(cc!("AT"))], 4, "first AT row wins");
        assert_eq!(index.iter().filter(|&&i| i != 0).count(), 2);
    }

    #[test]
    fn table_totals_match_paper() {
        // Note: the paper's Table 8 rows sum to 14,707 landing URLs while
        // Table 3 reports 15,878 — an internal inconsistency of the paper
        // (South Korea's row is all zeros). We embed Table 8 as printed
        // and treat its own sum as the oracle here; DESIGN.md records the
        // discrepancy.
        let landing: u32 = COUNTRIES.iter().map(|c| c.landing).sum();
        let internal: u32 = COUNTRIES.iter().map(|c| c.internal).sum();
        assert_eq!(landing, 14_707, "sum of Table 8 landing URLs");
        assert_eq!(internal, 962_970, "sum of Table 8 internal URLs");
        // Table 3 reports 15,878 / 1,017,865 — the ~5% gap to Table 8's
        // own rows is the paper's internal inconsistency, not ours.
        assert!((internal as f64 / 1_017_865.0) > 0.94);
    }

    #[test]
    fn population_coverage_is_about_82_percent() {
        let total: f64 = COUNTRIES.iter().map(|c| c.pop_share).sum();
        assert!((total - 82.7).abs() < 1.0, "population share sums to {total}");
    }

    #[test]
    fn vpn_provider_counts_match_table9() {
        use govhost_web::vantage::VpnProvider;
        let count = |v: VpnProvider| COUNTRIES.iter().filter(|c| c.vpn == v).count();
        assert_eq!(count(VpnProvider::Nord), 49);
        assert_eq!(count(VpnProvider::Surfshark), 10);
        assert_eq!(count(VpnProvider::HotspotShield), 2);
    }

    #[test]
    fn intercity_distances_plausible() {
        let us = country(cc!("US")).unwrap();
        assert!(us.intercity_km() > 3_000.0, "US spans a continent");
        let uy = country(cc!("UY")).unwrap();
        assert!(uy.intercity_km() < 600.0, "Uruguay is small");
        for c in COUNTRIES.iter().chain(HOST_ONLY_COUNTRIES) {
            let d = c.intercity_km();
            assert!(d > 5.0 && d < 8_000.0, "{}: {d} km", c.code);
        }
    }

    #[test]
    fn korea_has_no_data_as_in_table8() {
        let kr = country(cc!("KR")).unwrap();
        assert_eq!(kr.landing, 0);
        assert_eq!(kr.internal, 0);
    }

    #[test]
    fn eu_membership() {
        assert!(is_eu(cc!("DE")));
        assert!(is_eu(cc!("LU")));
        assert!(!is_eu(cc!("GB"))); // post-Brexit
        assert!(!is_eu(cc!("NO")));
        assert!(!is_eu(cc!("NC")), "New Caledonia is not part of the EU");
    }

    #[test]
    fn topsite_countries_match_table6() {
        // Table 6 lists two countries per region. (The paper's own table
        // files Egypt under Sub-Saharan Africa even though the sample
        // places it in MENA; we reproduce the table as printed.)
        assert_eq!(TOPSITE_COUNTRIES.len(), 14);
        for code in TOPSITE_COUNTRIES {
            let cc: CountryCode = code.parse().unwrap();
            assert!(country(cc).is_some(), "{code} must be in the sample");
        }
    }

    #[test]
    fn users_derived_from_pop_share() {
        let us = country(cc!("US")).unwrap();
        assert!((us.internet_users_m() - 5.760 * 53.0).abs() < 1e-9);
    }
}
