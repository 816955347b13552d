/* Lateral declassification: a monitor relabels one sensor's data as
 * another sensor's, a label beside it rather than below it.
 *
 *   regA  -- labeled sensor_a. Its monitor is a licensed declassifier
 *            (declassifier(sensor_a, sensor_b)), so a monitored read
 *            carries sensor_b: it is still labeled, and the assert on
 *            the monitored value is a Data error at sensor_b.
 *   regB  -- labeled sensor_b. Its raw read only steers a branch, so
 *            `cmd` is control-dependent on sensor_b: strict promotes it
 *            to a definite error, taint-only drops it, and
 *            report-separately keeps it apart.
 *
 * Both phase-3 engines must report the same findings here;
 * `make policy-smoke` compares them in all three implicit-flow modes.
 */
typedef struct Blk { float v; int seq; int flag; int pad; } Blk;
Blk *regA;
Blk *regB;
int shmget(int key, int size, int flags);
void *shmat(int shmid, void *addr, int flags);
void actuate(float v);

void initShm(void)
/** SafeFlow Annotation shminit */
{
    char *cursor;
    int shmid;
    shmid = shmget(78, 2 * sizeof(Blk), 0);
    cursor = (char *) shmat(shmid, 0, 0);
    regA = (Blk *) cursor;
    cursor = cursor + sizeof(Blk);
    regB = (Blk *) cursor;
    cursor = cursor + sizeof(Blk);
    /** SafeFlow Annotation
        assume(label(sensor_a))
        assume(label(sensor_b))
        assume(declassifier(sensor_a, sensor_b))
        assume(channel(regA, sizeof(Blk), sensor_a))
        assume(channel(regB, sizeof(Blk), sensor_b))
    */
}

float crossCheckA(float fallback)
/** SafeFlow Annotation assume(declassify(regA, 0, sizeof(Blk), sensor_b)) */
{
    float v;
    v = regA->v;
    if (v > 50.0) return fallback;
    if (v < 0.0 - 50.0) return fallback;
    return v;
}

int main() {
    float checked;
    float cmd;
    initShm();

    checked = crossCheckA(0.0);
    /** SafeFlow Annotation assert(safe(checked)) */
    actuate(checked);

    cmd = 1.0;
    if (regB->v > 0.0) {
        cmd = 2.0;
    }
    /** SafeFlow Annotation assert(safe(cmd)) */
    actuate(cmd);
    return 0;
}
