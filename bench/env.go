package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"syscall"
)

// environment is the fingerprint printed with every run, so two result
// files can be told apart by more than their numbers.
type environment struct {
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	Kernel     string  `json:"kernel"`
	TmpFS      string  `json:"durable_dir_fs"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	WarmupS    float64 `json:"warmup_s"`
	WindowS    float64 `json:"window_s"`
}

func fingerprint(tmp string, seed int64, warm, window float64) environment {
	return environment{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		Kernel:     kernelRelease(),
		TmpFS:      fsType(tmp),
		Commit:     commitHash(),
		Seed:       seed,
		WarmupS:    warm,
		WindowS:    window,
	}
}

func kernelRelease() string {
	data, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(data))
}

// commitHash asks git; a checkout that is not a repository (the acceptance
// driver's) has none.
func commitHash() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// fsType names the filesystem holding dir, where fsync=always really syncs.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x01021994: "tmpfs", 0x794C7630: "overlayfs",
		0x58465342: "xfs", 0x9123683E: "btrfs", 0x6969: "nfs", 0x2FC12FC1: "zfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}
