// Command saggen generates a synthetic EMR access/alert dataset calibrated
// to the paper's Table 1 and writes it as JSON — the substitute for the
// medical center's private 10.75M-event log.
//
// Usage:
//
//	saggen -days 56 -background 2000 -seed 2017 -out dataset.json
//	saggen -days 56 -accesses -out full.json   # include raw access events
//
// The output carries, per day, the typed alert stream (what the game layer
// consumes) and optionally the raw access events.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/auditgames/sag/internal/alerts"
	"github.com/auditgames/sag/internal/dataio"
	"github.com/auditgames/sag/internal/emr"
	"github.com/auditgames/sag/internal/sim"
)

// writeGameDataset emits the replayable game-level dataset (dataio schema).
func writeGameDataset(seed int64, days, background, pairs, employees, patients int, out string) error {
	ds, err := sim.BuildTable1Pipeline(sim.PipelineConfig{
		Seed:             seed,
		Days:             days,
		BackgroundPerDay: background,
		PairsPerKind:     pairs,
		WorldEmployees:   employees,
		WorldPatients:    patients,
	}, sim.AllTable1TypeIDs())
	if err != nil {
		return err
	}
	w := os.Stdout
	if out != "-" {
		w, err = os.Create(out)
		if err != nil {
			return err
		}
		defer w.Close()
	}
	return dataio.Write(w, ds)
}

type jsonAlert struct {
	Day        int     `json:"day"`
	TimeSec    float64 `json:"time_sec"`
	Type       int     `json:"type"`
	Rules      string  `json:"rules"`
	EmployeeID int     `json:"employee_id"`
	PatientID  int     `json:"patient_id"`
}

type jsonAccess struct {
	Day        int     `json:"day"`
	TimeSec    float64 `json:"time_sec"`
	EmployeeID int     `json:"employee_id"`
	PatientID  int     `json:"patient_id"`
}

type jsonDataset struct {
	Seed             int64        `json:"seed"`
	Days             int          `json:"days"`
	BackgroundPerDay int          `json:"background_per_day"`
	PairsPerKind     int          `json:"pairs_per_kind"`
	Employees        int          `json:"employees"`
	Patients         int          `json:"patients"`
	TypeDescriptions []string     `json:"type_descriptions"`
	Alerts           []jsonAlert  `json:"alerts"`
	Accesses         []jsonAccess `json:"accesses,omitempty"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "saggen:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		days       = flag.Int("days", 56, "number of working days to generate")
		background = flag.Int("background", 2000, "alert-silent accesses per day")
		pairs      = flag.Int("pairs", 300, "planted relationship pairs per alert type")
		employees  = flag.Int("employees", 400, "background employees")
		patients   = flag.Int("patients", 2000, "background patients")
		seed       = flag.Int64("seed", 2017, "generator seed")
		out        = flag.String("out", "-", "output path (- for stdout)")
		accesses   = flag.Bool("accesses", false, "include raw access events (large)")
		format     = flag.String("format", "raw", "output format: raw (full records) | game (sim.Dataset schema for replay)")
	)
	flag.Parse()

	switch *format {
	case "game":
		return writeGameDataset(*seed, *days, *background, *pairs, *employees, *patients, *out)
	case "raw":
		// handled below
	default:
		return fmt.Errorf("unknown format %q (want raw or game)", *format)
	}

	world, err := emr.NewWorld(emr.WorldConfig{Seed: *seed, Employees: *employees, Patients: *patients})
	if err != nil {
		return err
	}
	gen, err := emr.NewGenerator(world, emr.GeneratorConfig{
		Seed:             *seed,
		BackgroundPerDay: *background,
		PairsPerKind:     *pairs,
	})
	if err != nil {
		return err
	}
	eng, err := alerts.NewEngine(world, alerts.NewTable1Taxonomy())
	if err != nil {
		return err
	}

	ds := jsonDataset{
		Seed:             *seed,
		Days:             *days,
		BackgroundPerDay: *background,
		PairsPerKind:     *pairs,
		Employees:        world.NumEmployees(),
		Patients:         world.NumPatients(),
	}
	for k := emr.RelationKind(0); k < emr.NumKinds; k++ {
		ds.TypeDescriptions = append(ds.TypeDescriptions, k.String())
	}
	for d := 0; d < *days; d++ {
		events := gen.Day(d)
		scanned, err := eng.Scan(events)
		if err != nil {
			return err
		}
		for _, a := range scanned {
			ds.Alerts = append(ds.Alerts, jsonAlert{
				Day:        a.Day,
				TimeSec:    a.Time.Seconds(),
				Type:       a.Type,
				Rules:      a.Rules.String(),
				EmployeeID: a.EmployeeID,
				PatientID:  a.PatientID,
			})
		}
		if *accesses {
			for _, ev := range events {
				ds.Accesses = append(ds.Accesses, jsonAccess{
					Day:        ev.Day,
					TimeSec:    ev.Time.Seconds(),
					EmployeeID: ev.EmployeeID,
					PatientID:  ev.PatientID,
				})
			}
		}
	}

	var w *os.File
	if *out == "-" {
		w = os.Stdout
	} else {
		w, err = os.Create(*out)
		if err != nil {
			return err
		}
		defer w.Close()
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	start := time.Now()
	if err := enc.Encode(ds); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "saggen: wrote %d alerts over %d days in %v\n",
		len(ds.Alerts), *days, time.Since(start).Round(time.Millisecond))
	return nil
}
